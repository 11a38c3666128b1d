package db2rdf

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/internal/store"
)

// TestStatisticsFollowSnapshot pins that the optimizer's statistics
// belong to the snapshot a plan is compiled on: a burst of loads that
// changes the counts of a query's constants leaves the flow, the plan
// and every per-pattern estimate of a recompile on the held snapshot
// exactly as they were.
func TestStatisticsFollowSnapshot(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(gen.LUBM(1).Triples); err != nil {
		t.Fatal(err)
	}
	q := gen.LUBMQueries()[0] // LQ1: ?x type GraduateStudent . ?x takesCourse Course5.D0.U0
	snap := s.inner.Snapshot()
	type compiled struct {
		flow, plan string
		ests       [][]float64
	}
	compile := func() compiled {
		t.Helper()
		parsed, err := parseQuery(q.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := s.compile(snap, parsed)
		if err != nil {
			t.Fatal(err)
		}
		c := compiled{flow: cp.flow.String(), plan: cp.tr.Plan.String()}
		for _, tr := range cp.tr.Traces {
			c.ests = append(c.ests, append([]float64{tr.Est}, tr.Ests...))
		}
		return c
	}
	before := compile()

	course := rdf.NewIRI("http://lubm/Course5.D0.U0")
	takes := rdf.NewIRI("http://lubm/takesCourse")
	var burst []rdf.Triple
	for i := 0; i < 2000; i++ {
		burst = append(burst, rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://lubm/Burst%d", i)), takes, course))
	}
	if err := s.LoadTriples(burst); err != nil {
		t.Fatal(err)
	}
	if after := compile(); !reflect.DeepEqual(before, after) {
		t.Fatalf("recompile on the held snapshot changed:\nbefore %+v\nafter  %+v", before, after)
	}
	held, _ := snap.StatsView().ObjectCount(course)
	latest, _ := s.inner.StatsView().ObjectCount(course)
	if held+2000 != latest {
		t.Fatalf("the burst should add 2000 to the course's object count: held %v, latest %v", held, latest)
	}
}

// TestDerivedStatisticsMatchOracle referees the derived statistics
// against a brute-force count over Export after every step of random
// histories at K=2, where spills, multi-value lists that collapse back
// to single values, and rows emptied by deletes are all common. Every
// write path is a step: LoadTriples, one Insert per triple,
// DeleteTriples, Clear, and reopening the data directory from
// its snapshot alone (after Close) or from snapshot plus WAL (after a
// crash). Both the published snapshot and the live snapshot
// Update's WHERE reads are checked.
func TestDerivedStatisticsMatchOracle(t *testing.T) {
	var universe []rdf.Term
	for i := 0; i < 6; i++ {
		universe = append(universe, iri(fmt.Sprintf("e%d", i)))
	}
	for i := 0; i < 4; i++ {
		universe = append(universe, iri(fmt.Sprintf("p%d", i)), rdf.NewLiteral(fmt.Sprintf("v%d", i)))
	}
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Subjects and predicates from a small pool; objects are entities
		// too, so terms count on both sides.
		randTriple := func() rdf.Triple {
			o := universe[r.Intn(6)]
			if r.Intn(2) == 0 {
				o = rdf.NewLiteral(fmt.Sprintf("v%d", r.Intn(4)))
			}
			return rdf.NewTriple(universe[r.Intn(6)], iri(fmt.Sprintf("p%d", r.Intn(4))), o)
		}
		batch := func(n int) []rdf.Triple {
			ts := make([]rdf.Triple, n)
			for i := range ts {
				ts[i] = randTriple()
			}
			return ts
		}
		dir := t.TempDir()
		s := durOpen(t, dir, 0)
		for step := 0; step < 40; step++ {
			var label string
			switch op := r.Intn(10); {
			case op < 3:
				label = "LoadTriples"
				if err := s.LoadTriples(batch(1 + r.Intn(20))); err != nil {
					t.Fatal(err)
				}
			case op < 5:
				label = "Insert"
				for _, tr := range batch(1 + r.Intn(20)) {
					if err := s.Insert(tr); err != nil {
						t.Fatal(err)
					}
				}
			case op < 8:
				label = "DeleteTriples"
				// Mostly stored triples, so lists shrink and rows empty.
				stored := exportTriples(t, s)
				var del []rdf.Triple
				for i := 0; i < 1+r.Intn(12); i++ {
					if len(stored) > 0 && r.Intn(4) > 0 {
						del = append(del, stored[r.Intn(len(stored))])
					} else {
						del = append(del, randTriple())
					}
				}
				if _, err := s.DeleteTriples(del); err != nil {
					t.Fatal(err)
				}
			case op == 8:
				label = "Clear"
				s.inner.Clear()
			default:
				if r.Intn(2) == 0 {
					label = "close and reopen"
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					label = "crash and reopen"
				}
				s = durOpen(t, dir, 0)
			}
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, label)
			checkStatsOracle(t, where, s, s.inner.Snapshot(), universe)
			s.inner.Lock()
			checkStatsOracle(t, where+" live", s, s.inner.LiveSnapshot(), universe)
			s.inner.Unlock()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// exportTriples parses the store's Export back into triples.
func exportTriples(t *testing.T, s *Store) []rdf.Triple {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var out []rdf.Triple
	rd := rdf.NewReader(&buf)
	for {
		tr, err := rd.Read()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
}

// checkStatsOracle compares sn with counts taken by brute force over
// the store's Export: each side's entity count with the distinct
// subjects or objects, its spill count with the live DPH/RPH rows
// beyond each entity's first, and the statistics' total, both averages,
// and the subject and object count of every term of universe.
func checkStatsOracle(t *testing.T, where string, s *Store, sn *store.Snapshot, universe []rdf.Term) {
	t.Helper()
	v := sn.StatsView()
	ts := exportTriples(t, s)
	subj, obj := map[rdf.Term]int{}, map[rdf.Term]int{}
	for _, tr := range ts {
		subj[tr.S]++
		obj[tr.O]++
	}
	for _, c := range []struct {
		reverse  bool
		table    string
		distinct int
	}{{false, "DPH", len(subj)}, {true, "RPH", len(obj)}} {
		entities := sn.EntityCount(c.reverse)
		if entities != c.distinct {
			t.Fatalf("%s: EntityCount(reverse=%v) = %d, want %d", where, c.reverse, entities, c.distinct)
		}
		live := sn.DB().Table(c.table).LiveLen()
		if got := sn.SpillCount(c.reverse); got != live-entities {
			t.Fatalf("%s: SpillCount(reverse=%v) = %d, want %d live %s rows - %d entities", where, c.reverse, got, live, c.table, entities)
		}
	}
	avg := func(entities int) float64 {
		if entities == 0 {
			return 1
		}
		return float64(len(ts)) / float64(entities)
	}
	if got := v.TotalTriples(); got != float64(len(ts)) {
		t.Fatalf("%s: TotalTriples = %v, want %d", where, got, len(ts))
	}
	if got, want := v.AvgPerSubject(), avg(len(subj)); got != want {
		t.Fatalf("%s: AvgPerSubject = %v, want %v", where, got, want)
	}
	if got, want := v.AvgPerObject(), avg(len(obj)); got != want {
		t.Fatalf("%s: AvgPerObject = %v, want %v", where, got, want)
	}
	for _, term := range universe {
		if got, ok := v.SubjectCount(term); !ok || got != float64(subj[term]) {
			t.Fatalf("%s: SubjectCount(%s) = %v, %v; want %d", where, term, got, ok, subj[term])
		}
		if got, ok := v.ObjectCount(term); !ok || got != float64(obj[term]) {
			t.Fatalf("%s: ObjectCount(%s) = %v, %v; want %d", where, term, got, ok, obj[term])
		}
	}
}
