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

// insertEach adds ts one Insert at a time: the write path that places
// triple by triple in input order, the bulk loader's reference.
func insertEach(t *testing.T, s *Store, ts []rdf.Triple) {
	t.Helper()
	for _, tr := range ts {
		if err := s.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDuplicateLoadStats checks that re-inserting triples the store
// already holds does not skew the statistics: a triple counts once, no
// matter how many times (or through which write path) it arrives.
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
	statsEqual(t, "loaded twice", once, twice, ts)

	inserted := newTestStore(t, Options{K: 16})
	for i := 0; i < 2; i++ {
		insertEach(t, inserted, ts)
	}
	statsEqual(t, "inserted twice", once, inserted, ts)
}

// TestLoadParallelStats checks the statistics and entity counts after a
// bulk load match those of one Insert per triple.
func TestLoadParallelStats(t *testing.T) {
	ts := fig1Triples()
	seq := newTestStore(t, Options{K: 16})
	insertEach(t, seq, ts)
	bulk := newTestStore(t, Options{K: 16})
	if err := bulk.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "bulk load", seq, bulk, ts)
	for _, reverse := range []bool{false, true} {
		if got, want := bulk.Snapshot().EntityCount(reverse), seq.Snapshot().EntityCount(reverse); got != want {
			t.Errorf("reverse=%v: %d entities, want %d", reverse, got, want)
		}
	}
}

// TestLoadParallelSpills drives the bulk loader through the spill path:
// more distinct predicates on one entity than k column pairs.
func TestLoadParallelSpills(t *testing.T) {
	iri := rdf.NewIRI
	var ts []rdf.Triple
	for _, subj := range []string{"e1", "e2"} {
		for _, p := range []string{"p1", "p2", "p3", "p4", "p5", "p6"} {
			ts = append(ts, rdf.NewTriple(iri(subj), iri(p), rdf.NewLiteral(subj+"-"+p)))
		}
	}
	seq := newTestStore(t, Options{K: 3})
	insertEach(t, seq, ts)
	bulk := newTestStore(t, Options{K: 3})
	if err := bulk.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	if seq.Snapshot().SpillCount(false) == 0 {
		t.Fatal("test data should spill with K=3")
	}
	if got, want := bulk.Snapshot().SpillCount(false), seq.Snapshot().SpillCount(false); got != want {
		t.Errorf("bulk spill count %d, want %d", got, want)
	}
	if got, want := len(bulk.Snapshot().SpillPredicates(false)), len(seq.Snapshot().SpillPredicates(false)); got != want {
		t.Errorf("bulk spill predicates %d, want %d", got, want)
	}
}

// TestLoadParallelBadInput checks a parse error aborts Load before
// anything is inserted or interned, although the lines before the bad
// one parse.
func TestLoadParallelBadInput(t *testing.T) {
	s := newTestStore(t, Options{K: 16})
	terms := s.Dict.Len()
	doc := "<http://a> <http://p> <http://b> .\nthis is not a triple\n"
	if _, err := s.Load(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want a parse error naming line 2, got %v", err)
	}
	if got := s.StatsView().TotalTriples(); got != 0 {
		t.Fatalf("failed load must not insert; stats total = %v", got)
	}
	if got := s.Snapshot().EntityCount(false); got != 0 {
		t.Fatalf("failed load must not insert; entities = %d", got)
	}
	if got := s.Dict.Len(); got != terms {
		t.Fatalf("failed load must not intern; dictionary holds %d terms, had %d", got, terms)
	}
}
