package store

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"db2rdf/internal/rdf"
)

// TestMarkersExactAfterEveryPublish drives seeded insert/delete
// histories on a K=1 and a K=4 store, so entities spill and (s, p) and
// (o, p) pairs turn into lists and collapse again, and after every
// publish checks each side against a census of its tables: the
// published spill and multi-value marker sets, the writer's
// per-predicate cell counts and the entity count must all equal what
// recovery would derive. Most delete batches compact nothing, so the
// markers are checked on publishes that do no work beyond the delta.
func TestMarkersExactAfterEveryPublish(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(39 + k)))
			const nEnt, nPred = 24, 10
			iri := func(kind string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/%s%d", kind, i)) }
			random := func() rdf.Triple {
				o := iri("e", r.Intn(nEnt))
				if r.Intn(3) == 0 {
					o = rdf.NewLiteral(fmt.Sprintf("v%d", r.Intn(4)))
				}
				return rdf.NewTriple(iri("e", r.Intn(nEnt)), iri("p", r.Intn(nPred)), o)
			}
			s := newTestStore(t, Options{K: k})
			var present []rdf.Triple // stored triples, in a seeded order
			stored := map[rdf.Triple]bool{}

			// A bulk load first: each side counts on its own goroutine.
			var bulk []rdf.Triple
			for i := 0; i < 200; i++ {
				if tr := random(); !stored[tr] {
					bulk = append(bulk, tr)
					stored[tr] = true
				}
			}
			if err := s.LoadTriples(bulk); err != nil {
				t.Fatal(err)
			}
			present = append(present, bulk...)
			checkMarkersExact(t, s, "bulk load")

			var spills, lists, quietDeletes int
			for batch := 0; batch < 400; batch++ {
				s.Lock()
				deleted := false
				for op := 0; op < 1+r.Intn(8); op++ {
					switch x := r.Intn(100); {
					case x == 0:
						s.ClearLocked()
						present, stored = nil, map[rdf.Triple]bool{}
					case x < 45 && len(present) > 0:
						i := r.Intn(len(present))
						tr := present[i]
						if removed, err := s.DeleteLocked(tr); err != nil || !removed {
							t.Fatalf("delete %v: removed=%v err=%v", tr, removed, err)
						}
						present[i] = present[len(present)-1]
						present = present[:len(present)-1]
						delete(stored, tr)
						deleted = true
					default:
						tr := random()
						fresh, err := s.InsertTriplesLocked([]rdf.Triple{tr})
						if err != nil {
							t.Fatal(err)
						}
						if (fresh == 1) != !stored[tr] {
							t.Fatalf("insert %v: fresh=%d, stored before=%v", tr, fresh, stored[tr])
						}
						if fresh == 1 {
							present = append(present, tr)
							stored[tr] = true
						}
					}
				}
				before := s.Compactions()
				if err := s.PublishLocked(); err != nil {
					t.Fatal(err)
				}
				if deleted && s.Compactions() == before {
					quietDeletes++
				}
				sn := s.Snapshot()
				for _, reverse := range []bool{false, true} {
					spills += len(sn.SpillPredicates(reverse))
					if sn.AnyMultiValued(reverse) {
						lists++
					}
				}
				checkMarkersExact(t, s, fmt.Sprintf("batch %d", batch))
				s.Unlock()
			}
			if spills == 0 || lists == 0 || quietDeletes == 0 {
				t.Fatalf("history too tame: %d spill markers, %d list sides, %d delete publishes without compaction", spills, lists, quietDeletes)
			}
		})
	}
}

// checkMarkersExact fails unless, on both sides, the published marker
// sets, the writer's marker counts and the entity count equal a census
// of the tables. The caller holds the store write lock or runs alone.
func checkMarkersExact(t *testing.T, s *Store, where string) {
	t.Helper()
	sn := s.Snapshot()
	for i, d := range s.sides() {
		reverse := i == 1
		c, err := d.census()
		if err != nil {
			t.Fatalf("%s (reverse=%v): census: %v", where, reverse, err)
		}
		v := sn.side(reverse)
		if !maps.Equal(v.spill, keys(c.spillCells)) || !maps.Equal(v.multi, keys(c.multiCells)) {
			t.Fatalf("%s (reverse=%v): published markers spill=%v multi=%v, tables say spill=%v multi=%v",
				where, reverse, v.spill, v.multi, c.spillCells, c.multiCells)
		}
		if !maps.Equal(d.spillCells, c.spillCells) || !maps.Equal(d.multiCells, c.multiCells) {
			t.Fatalf("%s (reverse=%v): counts spill=%v multi=%v, tables say spill=%v multi=%v",
				where, reverse, d.spillCells, d.multiCells, c.spillCells, c.multiCells)
		}
		if v.entities != c.entities {
			t.Fatalf("%s (reverse=%v): %d entities, tables say %d", where, reverse, v.entities, c.entities)
		}
	}
}
