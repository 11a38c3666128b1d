package db2rdf

// Accounting test for the compiled-plan cache: hit/miss/eviction
// counters must be exact under concurrent get/put with stale plan-epoch
// eviction (run under -race by ci.sh). The conservation law asserted:
//
//	inserts == size + capEvictions + staleEvictions + resetDrops
//	gets    == hits + misses
//	misses  >= staleEvictions (every stale hit is a miss + an eviction)

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"db2rdf/internal/rdf"
	"db2rdf/internal/store"
)

// planEpochSnapshots returns the store and n of its published
// snapshots, each at a new plan epoch: every load between them makes
// one more predicate multi-valued.
func planEpochSnapshots(t *testing.T, n int) (*Store, []*store.Snapshot) {
	t.Helper()
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*store.Snapshot{s.inner.Snapshot()}
	for i := 1; i < n; i++ {
		p := rdf.NewIRI(fmt.Sprintf("p%d", i))
		if err := s.LoadTriples([]rdf.Triple{
			rdf.NewTriple(rdf.NewIRI("s"), p, rdf.NewIRI("o1")),
			rdf.NewTriple(rdf.NewIRI("s"), p, rdf.NewIRI("o2")),
		}); err != nil {
			t.Fatal(err)
		}
		sn := s.inner.Snapshot()
		if sn.PlanEpoch() == snaps[i-1].PlanEpoch() {
			t.Fatalf("load %d left the plan epoch at %d", i, sn.PlanEpoch())
		}
		snaps = append(snaps, sn)
	}
	return s, snaps
}

// planAt is a cache entry for key compiled on sn.
func planAt(key string, sn *store.Snapshot) *compiledPlan {
	return &compiledPlan{key: key, planEpoch: sn.PlanEpoch(), epoch: sn.Epoch()}
}

func TestPlanCacheAccountingConcurrent(t *testing.T) {
	_, snaps := planEpochSnapshots(t, 3)
	c := newPlanCache(16) // small capacity to force LRU evictions
	const workers = 8
	const opsPerWorker = 2000
	var gets, puts atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("q%d", (seed*31+i*7)%40) // 40 keys over 16 slots
				sn := snaps[i%len(snaps)]                   // rotating plan epochs force stale evictions
				if cp, ok := c.get(key, sn); ok && cp.planEpoch != sn.PlanEpoch() {
					t.Errorf("get returned a stale plan: key %s plan epoch %d vs %d", key, cp.planEpoch, sn.PlanEpoch())
				}
				gets.Add(1)
				if i%2 == 0 {
					c.put(planAt(key, sn))
					puts.Add(1)
				}
				if i%500 == 250 {
					c.reset()
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.statsFull()
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("hits(%d) + misses(%d) != gets(%d)", st.Hits, st.Misses, gets.Load())
	}
	if st.Inserts+st.Replacements != puts.Load() {
		t.Fatalf("inserts(%d) + replacements(%d) != puts(%d)", st.Inserts, st.Replacements, puts.Load())
	}
	if got := st.Inserts; got != uint64(st.Size)+st.CapEvictions+st.StaleEvictions+st.ResetDrops {
		t.Fatalf("conservation violated: inserts=%d size=%d cap=%d stale=%d reset=%d",
			st.Inserts, st.Size, st.CapEvictions, st.StaleEvictions, st.ResetDrops)
	}
	if st.Misses < st.StaleEvictions {
		t.Fatalf("every stale eviction must also count a miss: misses=%d stale=%d", st.Misses, st.StaleEvictions)
	}
	if st.CapEvictions == 0 || st.StaleEvictions == 0 {
		t.Fatalf("workload must exercise both eviction kinds: %+v", st)
	}
	if st.Size > 16 {
		t.Fatalf("cache over capacity: %d", st.Size)
	}
}

// TestPlanCacheStaleGetAccounting pins the exact single-threaded
// semantics: a stale entry found by get counts one miss and one stale
// eviction, never a hit. A plan is stale at another plan epoch; one
// that compiled an absent constant is stale at another data epoch too.
func TestPlanCacheStaleGetAccounting(t *testing.T) {
	s, snaps := planEpochSnapshots(t, 2)
	c := newPlanCache(4)
	c.put(planAt("q", snaps[0]))
	if _, ok := c.get("q", snaps[0]); !ok {
		t.Fatal("fresh entry must hit")
	}
	if _, ok := c.get("q", snaps[1]); ok {
		t.Fatal("entry at an older plan epoch must miss")
	}
	st := c.statsFull()
	want := planCacheStats{Hits: 1, Misses: 1, Inserts: 1, StaleEvictions: 1, Size: 0}
	if st != want {
		t.Fatalf("got %+v, want %+v", st, want)
	}

	// A write that adds no marker keeps the plan epoch but not the data
	// epoch.
	if err := s.LoadTriples([]rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("s2"), rdf.NewIRI("p1"), rdf.NewIRI("o3")),
	}); err != nil {
		t.Fatal(err)
	}
	later := s.inner.Snapshot()
	if later.PlanEpoch() != snaps[1].PlanEpoch() || later.Epoch() == snaps[1].Epoch() {
		t.Fatalf("marker-stable write: plan epoch %d -> %d, data epoch %d -> %d",
			snaps[1].PlanEpoch(), later.PlanEpoch(), snaps[1].Epoch(), later.Epoch())
	}
	c.put(planAt("q", snaps[1]))
	absent := planAt("qa", snaps[1])
	absent.absent = true
	c.put(absent)
	if !c.contains("q", later) {
		t.Fatal("plan must stay valid across a marker-stable write")
	}
	if c.contains("qa", later) || !c.contains("qa", snaps[1]) {
		t.Fatal("a plan with an absent constant is valid at its data epoch only")
	}
}
