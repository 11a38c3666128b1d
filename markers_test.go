package db2rdf_test

// Regression tests for the spill/multi predicate markers across
// deletes: the writer keeps spillPreds/multiPreds exact by counting the
// cells behind each marker (no publish rescans the tables), so a
// long-running server has the same translator inputs (and therefore the
// same EXPLAIN plans and SQL) as a store restarted from its durable
// snapshot, whose markers recovery derives from the tables.

import (
	"fmt"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
)

// markerChurn builds a store exhibiting every stale-marker shape, then
// deletes enough rows in one chunk to trigger publish-time compaction:
//   - a spilled subject (more predicates than one K=4 row holds) whose
//     triples are all deleted — its predicates must leave spillPreds;
//   - a multi-valued (s,p) pair collapsed back to a single value — p
//     must leave multiPreds on the direct side;
//   - 300 single-triple filler subjects, deleted to cross the per-chunk
//     dead-row compaction threshold (chunkRows/4 = 256).
func markerChurn(t *testing.T, opts db2rdf.Options) (*db2rdf.Store, []rdf.Triple, []rdf.Triple) {
	t.Helper()
	s, err := db2rdf.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var load, del []rdf.Triple
	// Spilled subject: 12 distinct predicates over K=4 (8 pairs per row
	// at most across candidate columns) guarantees at least one spill
	// row regardless of the hash mapping.
	for i := 0; i < 12; i++ {
		tr := rdf.NewTriple(
			rdf.NewIRI("http://marker/spilled"),
			rdf.NewIRI(fmt.Sprintf("http://marker/sp%d", i)),
			rdf.NewLiteral(fmt.Sprintf("sv%d", i)))
		load = append(load, tr)
		del = append(del, tr)
	}
	// Multi-valued pair: two objects for one (s, p); deleting one
	// collapses the DS list back to a direct value.
	keepMulti := rdf.NewTriple(rdf.NewIRI("http://marker/ms"), rdf.NewIRI("http://marker/mp"), rdf.NewLiteral("kept"))
	dropMulti := rdf.NewTriple(rdf.NewIRI("http://marker/ms"), rdf.NewIRI("http://marker/mp"), rdf.NewLiteral("dropped"))
	load = append(load, keepMulti, dropMulti)
	del = append(del, dropMulti)
	// Filler subjects whose deletion tombstones whole rows in the first
	// DPH/RPH chunks, crossing the compaction threshold.
	for i := 0; i < 300; i++ {
		tr := rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://marker/f%d", i)),
			rdf.NewIRI("http://marker/fp"),
			rdf.NewLiteral(fmt.Sprintf("fv%d", i)))
		load = append(load, tr)
		del = append(del, tr)
	}
	if err := s.LoadTriples(load); err != nil {
		t.Fatal(err)
	}
	return s, load, del
}

func TestMarkersRecomputedAtCompaction(t *testing.T) {
	s, _, del := markerChurn(t, db2rdf.Options{K: 4})
	inner := s.Internal()
	sn := inner.Snapshot()
	mpid, ok := sn.LookupID(rdf.NewIRI("http://marker/mp"))
	if !ok {
		t.Fatal("multi predicate not interned")
	}
	if !sn.MultiValued(mpid, false) {
		t.Fatal("mp must be multi-valued before the delete")
	}
	if len(sn.SpillPredicates(false)) == 0 {
		t.Fatal("expected direct-side spill predicates before the delete")
	}

	n, err := s.DeleteTriples(del)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(del) {
		t.Fatalf("deleted %d, want %d", n, len(del))
	}

	// The delete's publish compacted the filler-heavy chunks, so the
	// snapshot it published must hold exact markers: the collapsed pair
	// is single-valued again and the fully removed spilled subject left
	// spillPreds.
	if inner.Compactions() == 0 {
		t.Fatal("test did not trigger publish-time compaction; threshold assumptions broken")
	}
	sn = inner.Snapshot()
	if sn.MultiValued(mpid, false) {
		t.Fatal("mp still marked multi-valued after collapse + compaction")
	}
	for pid := range sn.SpillPredicates(false) {
		term, err := inner.Dict.Decode(pid)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(term.Value, "http://marker/sp") {
			t.Fatalf("deleted spill predicate %s still marked", term.Value)
		}
	}
	if got := sn.SpillCount(false); got != 0 {
		t.Fatalf("direct spill count = %d, want 0 after deleting the spilled subject", got)
	}
}

// TestMarkerExplainMatchesRecovery asserts the headline property: after
// delete-heavy churn and a compacting publish, the live store's EXPLAIN
// output (plan and generated SQL, both functions of the spill/multi
// markers) is identical to that of a store recovered from the same data
// directory — a long-running server no longer degrades relative to a
// restarted one.
func TestMarkerExplainMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _, del := markerChurn(t, db2rdf.Options{K: 4, DataDir: dir})
	if _, err := s.DeleteTriples(del); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT ?o WHERE { <http://marker/ms> <http://marker/mp> ?o }`,
		`SELECT ?s ?o WHERE { ?s <http://marker/mp> ?o . ?s <http://marker/sp1> ?x }`,
		`SELECT ?s WHERE { ?s <http://marker/fp> ?o }`,
	}
	type shape struct{ flow, tree, plan, sql string }
	live := make([]shape, len(queries))
	for i, q := range queries {
		ex, err := s.Explain(q)
		if err != nil {
			t.Fatalf("live explain %q: %v", q, err)
		}
		live[i] = shape{ex.Flow, ex.Tree, ex.Plan, ex.SQL}
	}
	liveResults := make([]*db2rdf.Results, len(queries))
	for i, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		liveResults[i] = res
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := db2rdf.Open(db2rdf.Options{K: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for i, q := range queries {
		ex, err := rec.Explain(q)
		if err != nil {
			t.Fatalf("recovered explain %q: %v", q, err)
		}
		got := shape{ex.Flow, ex.Tree, ex.Plan, ex.SQL}
		if got != live[i] {
			t.Errorf("explain diverges for %q:\nlive: %+v\nrecovered: %+v", q, live[i], got)
		}
		res, err := rec.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(liveResults[i].Rows) {
			t.Errorf("row count diverges for %q: live %d, recovered %d", q, len(liveResults[i].Rows), len(res.Rows))
		}
	}
	// Marker-level agreement on both sides.
	li, ri := s.Internal().Snapshot(), rec.Internal().Snapshot()
	for _, reverse := range []bool{false, true} {
		if l, r := li.SpillCount(reverse), ri.SpillCount(reverse); l != r {
			t.Errorf("spill count (reverse=%v): live %d, recovered %d", reverse, l, r)
		}
		ls, rs := li.SpillPredicates(reverse), ri.SpillPredicates(reverse)
		if len(ls) != len(rs) {
			t.Errorf("spill predicate set size (reverse=%v): live %d, recovered %d", reverse, len(ls), len(rs))
		}
		for pid := range ls {
			if !rs[pid] {
				t.Errorf("spill predicate %d (reverse=%v) live-only", pid, reverse)
			}
		}
	}
}
