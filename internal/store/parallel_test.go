package store

import (
	"strings"
	"testing"

	"db2rdf/internal/rdf"
)

// statsEqual compares two stores' optimizer statistics: the totals,
// both averages, and the subject and object count of every term of ts
// (ids are store-local, so counts are compared by term).
func statsEqual(t *testing.T, label string, a, b *Store, ts []rdf.Triple) {
	t.Helper()
	av, bv := a.StatsView(), b.StatsView()
	if av.TotalTriples() != bv.TotalTriples() {
		t.Errorf("%s: total %v != %v", label, av.TotalTriples(), bv.TotalTriples())
	}
	if av.AvgPerSubject() != bv.AvgPerSubject() || av.AvgPerObject() != bv.AvgPerObject() {
		t.Errorf("%s: averages %v/%v != %v/%v", label, av.AvgPerSubject(), av.AvgPerObject(), bv.AvgPerSubject(), bv.AvgPerObject())
	}
	for _, tr := range ts {
		for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
			an, _ := av.SubjectCount(term)
			bn, _ := bv.SubjectCount(term)
			if an != bn {
				t.Errorf("%s: subject count of %s %v != %v", label, term, an, bn)
			}
			an, _ = av.ObjectCount(term)
			bn, _ = bv.ObjectCount(term)
			if an != bn {
				t.Errorf("%s: object count of %s %v != %v", label, term, an, bn)
			}
		}
	}
}

// TestDuplicateLoadStats checks that re-inserting triples the store
// already holds does not skew the statistics: a triple counts once, no
// matter how many times (or through which loader) it arrives.
func TestDuplicateLoadStats(t *testing.T) {
	ts := fig1Triples()

	once := newTestStore(t, Options{K: 16})
	if err := once.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	if got, want := once.StatsView().TotalTriples(), float64(len(ts)); got != want {
		t.Fatalf("single load: total = %v, want %v", got, want)
	}

	twice := newTestStore(t, Options{K: 16})
	if err := twice.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	if err := twice.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "sequential twice", once, twice, ts)

	par := newTestStore(t, Options{K: 16})
	for i := 0; i < 2; i++ {
		if err := par.LoadTriplesParallel(ts, 4); err != nil {
			t.Fatal(err)
		}
	}
	statsEqual(t, "parallel twice", once, par, ts)
}

// TestLoadParallelStats checks the statistics after a parallel load
// match a sequential load of the same triples.
func TestLoadParallelStats(t *testing.T) {
	ts := fig1Triples()
	seq := newTestStore(t, Options{K: 16})
	if err := seq.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		par := newTestStore(t, Options{K: 16})
		if err := par.LoadTriplesParallel(ts, workers); err != nil {
			t.Fatal(err)
		}
		statsEqual(t, "workers", seq, par, ts)
		if got, want := par.Snapshot().EntityCount(false), seq.Snapshot().EntityCount(false); got != want {
			t.Errorf("workers=%d: direct entities %d, want %d", workers, got, want)
		}
		if got, want := par.Snapshot().EntityCount(true), seq.Snapshot().EntityCount(true); got != want {
			t.Errorf("workers=%d: reverse entities %d, want %d", workers, got, want)
		}
	}
}

// TestLoadParallelSpills drives the parallel loader through the spill
// path: more distinct predicates on one entity than k column pairs.
func TestLoadParallelSpills(t *testing.T) {
	iri := rdf.NewIRI
	var ts []rdf.Triple
	for _, subj := range []string{"e1", "e2"} {
		for _, p := range []string{"p1", "p2", "p3", "p4", "p5", "p6"} {
			ts = append(ts, rdf.NewTriple(iri(subj), iri(p), rdf.NewLiteral(subj+"-"+p)))
		}
	}
	seq := newTestStore(t, Options{K: 3})
	if err := seq.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	par := newTestStore(t, Options{K: 3})
	if err := par.LoadTriplesParallel(ts, 4); err != nil {
		t.Fatal(err)
	}
	if seq.Snapshot().SpillCount(false) == 0 {
		t.Fatal("test data should spill with K=3")
	}
	if got, want := par.Snapshot().SpillCount(false), seq.Snapshot().SpillCount(false); got != want {
		t.Errorf("parallel spill count %d, want %d", got, want)
	}
	if got, want := len(par.Snapshot().SpillPredicates(false)), len(seq.Snapshot().SpillPredicates(false)); got != want {
		t.Errorf("parallel spill predicates %d, want %d", got, want)
	}
}

// TestLoadParallelBadInput checks a parse error aborts the load without
// inserting anything.
func TestLoadParallelBadInput(t *testing.T) {
	s := newTestStore(t, Options{K: 16})
	doc := "<http://a> <http://p> <http://b> .\nthis is not a triple\n"
	if _, err := s.LoadParallel(strings.NewReader(doc), 4); err == nil {
		t.Fatal("want parse error")
	}
	if got := s.StatsView().TotalTriples(); got != 0 {
		t.Fatalf("failed load must not insert; stats total = %v", got)
	}
	if got := s.Snapshot().EntityCount(false); got != 0 {
		t.Fatalf("failed load must not insert; entities = %d", got)
	}
}
