package store

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"db2rdf/internal/rdf"
)

// TestLiveSnapshotMatchesPublished drives random insert, delete and
// clear histories at K=2, so spills and DS/RS lists appear and
// disappear, and after each batch compares, under the write lock, the
// live snapshot with the one the publish installs right after: one view
// of one state, read over the live tables and over the frozen ones.
// Both sides are compared on markers, counts, bytes and statistics,
// also on the publishes that compact chunks after deletes.
func TestLiveSnapshotMatchesPublished(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const nEnt, nPred = 8, 6
	term := func(kind string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/%s%d", kind, i)) }
	compacted := 0
	for trial := 0; trial < 3; trial++ {
		s := newTestStore(t, Options{K: 2})
		present := map[rdf.Triple]bool{}
		for batch := 0; batch < 400; batch++ {
			s.Lock()
			for op := 0; op < 1+r.Intn(16); op++ {
				switch x := r.Intn(400); {
				case x == 0:
					s.ClearLocked()
					clear(present)
				case x < 180 && len(present) > 0:
					for tr := range present { // an arbitrary stored triple
						if removed, err := s.DeleteLocked(tr); err != nil || !removed {
							t.Fatalf("delete %v: removed=%v err=%v", tr, removed, err)
						}
						delete(present, tr)
						break
					}
				default:
					tr := rdf.NewTriple(term("e", r.Intn(nEnt)), term("p", r.Intn(nPred)), term("e", r.Intn(nEnt)))
					if _, err := s.InsertTriplesLocked([]rdf.Triple{tr}); err != nil {
						t.Fatal(err)
					}
					present[tr] = true
				}
			}
			live := s.LiveSnapshot()
			before := s.Compactions()
			if err := s.PublishLocked(); err != nil {
				t.Fatal(err)
			}
			pub := s.Snapshot()
			if s.Compactions() > before {
				compacted++
			}
			where := fmt.Sprintf("trial %d batch %d", trial, batch)
			compareSnapshots(t, where, live, pub, nEnt, nPred, term)
			s.Unlock()
		}
	}
	if compacted == 0 {
		t.Fatal("no publish compacted chunks: the history never crossed the dead-row threshold")
	}
}

// compareSnapshots fails unless two snapshots agree on every reader
// surface: per side the markers, the spill and entity counts, and the
// statistics' averages and per-constant counts; overall the relation
// bytes, the triple total and the top constants.
func compareSnapshots(t *testing.T, where string, a, b *Snapshot, nEnt, nPred int, term func(string, int) rdf.Term) {
	t.Helper()
	for _, reverse := range []bool{false, true} {
		if !maps.Equal(a.SpillPredicates(reverse), b.SpillPredicates(reverse)) {
			t.Fatalf("%s (reverse=%v): spill predicates %v vs %v", where, reverse, a.SpillPredicates(reverse), b.SpillPredicates(reverse))
		}
		for p := 0; p < nPred; p++ {
			pid, ok := a.LookupID(term("p", p))
			if ok && a.MultiValued(pid, reverse) != b.MultiValued(pid, reverse) {
				t.Fatalf("%s (reverse=%v): MultiValued(p%d) differs", where, reverse, p)
			}
		}
		for _, f := range []struct {
			name string
			get  func(*Snapshot) any
		}{
			{"AnyMultiValued", func(sn *Snapshot) any { return sn.AnyMultiValued(reverse) }},
			{"SpillCount", func(sn *Snapshot) any { return sn.SpillCount(reverse) }},
			{"EntityCount", func(sn *Snapshot) any { return sn.EntityCount(reverse) }},
		} {
			if x, y := f.get(a), f.get(b); x != y {
				t.Fatalf("%s (reverse=%v): %s %v vs %v", where, reverse, f.name, x, y)
			}
		}
	}
	if x, y := a.TableBytes(), b.TableBytes(); x != y {
		t.Fatalf("%s: TableBytes %d vs %d", where, x, y)
	}
	av, bv := a.StatsView(), b.StatsView()
	if av.TotalTriples() != bv.TotalTriples() || av.AvgPerSubject() != bv.AvgPerSubject() || av.AvgPerObject() != bv.AvgPerObject() {
		t.Fatalf("%s: statistics totals/averages differ: %v/%v/%v vs %v/%v/%v", where,
			av.TotalTriples(), av.AvgPerSubject(), av.AvgPerObject(), bv.TotalTriples(), bv.AvgPerSubject(), bv.AvgPerObject())
	}
	for e := 0; e < nEnt; e++ {
		c := term("e", e)
		as, _ := av.SubjectCount(c)
		bs, _ := bv.SubjectCount(c)
		ao, _ := av.ObjectCount(c)
		bo, _ := bv.ObjectCount(c)
		if as != bs || ao != bo {
			t.Fatalf("%s: counts of e%d: subject %v vs %v, object %v vs %v", where, e, as, bs, ao, bo)
		}
	}
	if x, y := a.TopConstants(10), b.TopConstants(10); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: TopConstants %v vs %v", where, x, y)
	}
}
