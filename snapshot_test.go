package db2rdf_test

// Snapshot-isolation tests for the lock-free read path: readers load
// one published snapshot pointer and must observe exactly the content
// of some published epoch — never a half-applied update — while a
// writer keeps mutating and publishing. Run with -race (tier-1 does).

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
)

// TestSnapshotIsolationReaders drives the PR 6 randomized insert/delete
// interleaving (600 steps over a 240-triple universe) with continuous
// concurrent readers. The writer records the canonical export of every
// epoch it publishes; every export a reader observes must be
// byte-identical to one of them. A torn read — a reader seeing a state
// that was never published — fails the membership check; a leaked
// reader or executor goroutine fails the leak check.
func TestSnapshotIsolationReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	universe := make([]rdf.Triple, 0, 240)
	for e := 0; e < 12; e++ {
		for p := 0; p < 5; p++ {
			for v := 0; v < 4; v++ {
				universe = append(universe, rdf.NewTriple(
					rdf.NewIRI(fmt.Sprintf("e%d", e)),
					rdf.NewIRI(fmt.Sprintf("p%d", p)),
					rdf.NewLiteral(fmt.Sprintf("v%d", v)),
				))
			}
		}
	}

	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	export := func() string {
		var buf bytes.Buffer
		if _, err := s.Export(&buf); err != nil {
			t.Errorf("export: %v", err)
		}
		return buf.String()
	}
	// One warm-up export before counting goroutines: the first query
	// through the pipeline may lazily start runtime machinery.
	published := map[string]bool{export(): true}
	baseline := runtime.NumGoroutine()

	const readers = 3
	done := make(chan struct{})
	observed := make([][]string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var obs []string
			for {
				select {
				case <-done:
					observed[r] = obs
					return
				default:
				}
				var buf bytes.Buffer
				if _, err := s.Export(&buf); err != nil {
					t.Errorf("reader %d export: %v", r, err)
					observed[r] = obs
					return
				}
				// Consecutive duplicates carry no new information;
				// keeping only transitions bounds memory.
				if e := buf.String(); len(obs) == 0 || obs[len(obs)-1] != e {
					obs = append(obs, e)
				}
			}
		}(r)
	}

	ntFor := func(tr rdf.Triple) string {
		return fmt.Sprintf("<%s> <%s> %q", tr.S.Value, tr.P.Value, tr.O.Value)
	}
	for step := 0; step < 600; step++ {
		tr := universe[rng.Intn(len(universe))]
		var err error
		if rng.Intn(3) == 0 {
			_, err = s.Update(`DELETE DATA { ` + ntFor(tr) + ` }`)
		} else {
			_, err = s.Update(`INSERT DATA { ` + ntFor(tr) + ` }`)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// The writer is the only mutator, so this export captures
		// exactly the epoch the update just published (or republished
		// content identical to the previous one for a no-op).
		published[export()] = true
	}
	close(done)
	wg.Wait()

	total := 0
	for r, obs := range observed {
		total += len(obs)
		for i, e := range obs {
			if !published[e] {
				t.Fatalf("reader %d observation %d (%d bytes) matches no published epoch — torn read", r, i, len(e))
			}
		}
	}
	if total == 0 {
		t.Fatal("readers observed nothing; the test exercised no concurrency")
	}
	t.Logf("%d distinct published states, %d reader state transitions verified", len(published), total)

	// Goroutine-leak check: everything the readers and the executor
	// started must wind down. Transient morsel workers need a moment.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// snapshotGateFactor bounds reader latency while a bulk load runs
// concurrently, relative to the idle warm-plan latency at the same
// percentile (median against median, p99 against p99 — comparing a
// tail against a median would gate on GC noise, not on locking).
// Reads never take the store lock, so load activity should cost
// readers at most cache pressure and GC — a multiple of idle latency,
// not the seconds a lock-coupled reader would stall waiting for the
// loader.
const snapshotGateFactor = 5.0

// TestPerfGateSnapshotReads is the ci.sh non-blocking-reads gate
// (DB2RDF_PERF_GATE=1): warm-query p50 and p99 measured during a
// concurrent bulk load must stay within snapshotGateFactor of their
// idle counterparts.
func TestPerfGateSnapshotReads(t *testing.T) {
	if os.Getenv("DB2RDF_PERF_GATE") == "" {
		t.Skip("set DB2RDF_PERF_GATE=1 to run the snapshot-read latency gate")
	}
	ds := lubmData()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[0].SPARQL
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}

	idleP50, idleP99 := readLatencies(t, s, q, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		loadChurn(t, s, 30, 2000)
	}()
	loadP50, loadP99 := readLatencies(t, s, q, stop)
	wg.Wait()

	t.Logf("idle p50 %v p99 %v, during-load p50 %v p99 %v (limit %.1fx per percentile)",
		idleP50, idleP99, loadP50, loadP99, snapshotGateFactor)
	if float64(loadP50) > snapshotGateFactor*float64(idleP50) {
		t.Fatalf("reader latency under load: p50 %v > %.1f x idle p50 %v — reads are blocking on the writer",
			loadP50, snapshotGateFactor, idleP50)
	}
	if float64(loadP99) > snapshotGateFactor*float64(idleP99) {
		t.Fatalf("reader latency under load: p99 %v > %.1f x idle p99 %v — reads are blocking on the writer",
			loadP99, snapshotGateFactor, idleP99)
	}
}

// readLatencies times warm queries and returns the p50 and p99. With a
// nil stop channel it takes a fixed idle sample; otherwise it samples
// until stop closes (with a floor so the percentile is meaningful).
func readLatencies(t *testing.T, s *db2rdf.Store, q string, stop <-chan struct{}) (p50, p99 time.Duration) {
	t.Helper()
	var samples []time.Duration
	for {
		if len(samples) >= 300 {
			if stop == nil || len(samples) >= 20000 {
				break
			}
			select {
			case <-stop:
				return percentiles(samples)
			default:
			}
		}
		t0 := time.Now()
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, time.Since(t0))
	}
	return percentiles(samples)
}

func percentiles(samples []time.Duration) (p50, p99 time.Duration) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], samples[len(samples)*99/100]
}

// loadChurn bulk-loads batches of fresh triples, publishing a new
// snapshot per batch — the writer side of the mixed workload.
func loadChurn(t *testing.T, s *db2rdf.Store, batches, batchSize int) {
	t.Helper()
	for b := 0; b < batches; b++ {
		tris := make([]rdf.Triple, 0, batchSize)
		for i := 0; i < batchSize; i++ {
			tris = append(tris, rdf.NewTriple(
				rdf.NewIRI(fmt.Sprintf("http://churn/s%d-%d", b, i)),
				rdf.NewIRI(fmt.Sprintf("http://churn/p%d", i%7)),
				rdf.NewLiteral(fmt.Sprintf("v%d", i)),
			))
		}
		if err := s.LoadTriples(tris); err != nil {
			t.Errorf("churn batch %d: %v", b, err)
			return
		}
	}
}

// TestPublishedEpochNeverAhead pins that the snapshot_epoch gauge
// reports a published epoch: a metrics scrape taken before a snapshot
// load never names an epoch that snapshot does not have yet. A writer
// advances its epoch counter before the WAL append, the fsync and the
// pointer swap, so a gauge reading that counter runs ahead of what any
// reader can see — on nearly every scrape with an fsynced log.
func TestPublishedEpochNeverAhead(t *testing.T) {
	for _, c := range []struct {
		name string
		opts db2rdf.Options
	}{
		{"memory", db2rdf.Options{}},
		{"durable-fsync", db2rdf.Options{DataDir: t.TempDir(), Fsync: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := db2rdf.Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			started, stop := make(chan struct{}), make(chan struct{})
			var scrapes, ahead int
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				close(started)
				for {
					select {
					case <-stop:
						return
					default:
					}
					gauge := s.Metrics().Snapshot().SnapshotEpoch
					if gauge > s.Internal().Snapshot().Epoch() {
						ahead++
					}
					scrapes++
				}
			}()
			<-started
			for i := 0; i < 300; i++ {
				tr := rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("s%d", i%17)), rdf.NewIRI("p"), rdf.NewLiteral(fmt.Sprint(i)))
				if err := s.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			if ahead > 0 {
				t.Fatalf("%d of %d scrapes reported an epoch ahead of the published snapshot", ahead, scrapes)
			}
		})
	}
}
