package db2rdf_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
)

const lubmPrefixes = `PREFIX ub: <http://lubm/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> `

// loadedStore opens an in-memory store holding ds.
func loadedStore(t *testing.T, ds *gen.Dataset) *db2rdf.Store {
	t.Helper()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	return s
}

// solve runs q and returns its undecoded answer.
func solve(t *testing.T, s *db2rdf.Store, q string) *db2rdf.Solutions {
	t.Helper()
	sol, err := s.SolveContext(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return sol
}

// sameResults reports the first difference between got and want,
// binding for binding, or "" if there is none.
func sameResults(got, want *db2rdf.Results) string {
	if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) || got.Ask != want.Ask || got.IsAsk != want.IsAsk {
		return fmt.Sprintf("header %v/%v/%v, want %v/%v/%v", got.Vars, got.Ask, got.IsAsk, want.Vars, want.Ask, want.IsAsk)
	}
	if (got.Rows == nil) != (want.Rows == nil) || len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows (nil %v), want %d (nil %v)", len(got.Rows), got.Rows == nil, len(want.Rows), want.Rows == nil)
	}
	for r := range want.Rows {
		if len(got.Rows[r]) != len(want.Rows[r]) {
			return fmt.Sprintf("row %d: %d bindings, want %d", r, len(got.Rows[r]), len(want.Rows[r]))
		}
		for c, b := range want.Rows[r] {
			if got.Rows[r][c] != b {
				return fmt.Sprintf("row %d column %d: %+v, want %+v", r, c, got.Rows[r][c], b)
			}
		}
	}
	return ""
}

// TestResultsMatchPerCellDecode: Results, which decodes a whole answer
// into one binding slab and one key arena, yields binding for binding
// what decoding every cell through the dictionary into its own row
// slice yields. It covers every LUBM and SP2B template, an OPTIONAL
// with unbound cells, an empty answer, ASK and the empty pattern's
// unit solution. Terms decoded before later inserts and deletes still
// compare equal after them, since their strings alias an arena nothing
// writes again.
func TestResultsMatchPerCellDecode(t *testing.T) {
	extra := []string{
		lubmPrefixes + `SELECT ?x ?a WHERE { ?x rdf:type ub:UndergraduateStudent OPTIONAL { ?x ub:advisor ?a } }`,
		lubmPrefixes + `SELECT ?x WHERE { ?x ub:advisor "nobody" }`,
		lubmPrefixes + `ASK { ?x ub:advisor ?a }`,
		`SELECT * WHERE { }`,
	}
	for _, ds := range []*gen.Dataset{lubmData(), sp2bData()} {
		s := loadedStore(t, ds)
		var qs []string
		for _, q := range ds.Queries {
			qs = append(qs, q.SPARQL)
		}
		if ds == lubmData() {
			qs = append(qs, extra...)
		}
		type decoded struct {
			q        string
			got, ref *db2rdf.Results
		}
		var kept []decoded
		unbound := 0
		for _, q := range qs {
			sol := solve(t, s, q)
			ref, err := s.DecodePerCellForTest(sol)
			if err != nil {
				t.Fatalf("%s: reference decode: %v", q, err)
			}
			got, err := sol.Results()
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if d := sameResults(got, ref); d != "" {
				t.Errorf("%s: %s", q, d)
			}
			for _, row := range got.Rows {
				for _, b := range row {
					if !b.Bound {
						unbound++
					}
				}
			}
			kept = append(kept, decoded{q, got, ref})
		}
		if unbound == 0 {
			t.Errorf("%s: no unbound cell decoded", ds.Name)
		}

		var fresh []rdf.Triple
		for i := 0; i < 100; i++ {
			fresh = append(fresh, rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://fresh/s%d", i)),
				rdf.NewIRI("http://fresh/p"), rdf.NewLiteral(fmt.Sprintf("fresh %d", i))))
		}
		if err := s.LoadTriples(fresh); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeleteTriples(ds.Triples[:200]); err != nil {
			t.Fatal(err)
		}
		snap := s.Internal().Snapshot()
		for _, k := range kept {
			if _, err := s.QueryOnForTest(snap, k.q); err != nil {
				t.Fatalf("%s after writes: %v", k.q, err)
			}
		}
		runtime.GC()
		for _, k := range kept {
			if d := sameResults(k.got, k.ref); d != "" {
				t.Errorf("%s: after writes: %s", k.q, d)
			}
		}
	}
}

// TestResultsAllocsIndependentOfRows gates what decoding an answer
// allocates: the Results header, the row headers, one binding slab and
// one key arena, as many for one row as for ten thousand.
func TestResultsAllocsIndependentOfRows(t *testing.T) {
	const ceiling = 4
	s := loadedStore(t, sp2bData())
	const q = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`
	var counts []float64
	for _, tc := range []struct {
		q                string
		minRows, maxRows int
	}{
		{q + ` LIMIT 1`, 1, 1},
		{q, 10000, 1 << 30},
	} {
		sol := solve(t, s, tc.q)
		if sol.Len() < tc.minRows || sol.Len() > tc.maxRows {
			t.Fatalf("%s: %d rows, want %d..%d", tc.q, sol.Len(), tc.minRows, tc.maxRows)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sol.Results(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d rows: %.0f allocs", sol.Len(), allocs)
		if allocs > ceiling {
			t.Errorf("%d rows: %.0f allocs per Results, ceiling %d", sol.Len(), allocs, ceiling)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("Results allocates %.0f times for one row and %.0f for many", counts[0], counts[1])
	}
}
