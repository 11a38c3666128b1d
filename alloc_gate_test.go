package db2rdf_test

import (
	"runtime"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rel"
)

// sq9Shape is SP2Bench's Q9 over LUBM: the predicates into and out of
// every full professor, two variable-predicate triples whose entity a
// type lookup binds.
const sq9Shape = `PREFIX ub: <http://lubm/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
	SELECT DISTINCT ?predicate WHERE {
		{ ?person rdf:type ub:FullProfessor . ?subject ?predicate ?person } UNION
		{ ?person rdf:type ub:FullProfessor . ?person ?predicate ?object } }`

// TestWarmQueryAllocs gates what one execution of a cached plan
// allocates: a point lookup (LQ1), a five-pattern join (LQ8) and the
// two variable-predicate flips of sq9Shape over LUBM(4), and SP2Bench's
// SQ5a — scans and joins of a few thousand rows — over SP2B(15000). A
// warm query does no parsing, binding or planning, so its allocations
// are the executor's intermediate rows plus result decoding
// — the cost that grew with the width of DPH/RPH until scans, probes
// and joins started reading only the columns the SQL names. The
// ceilings sit about 10% over the measured values; one worker keeps the
// counts deterministic.
func TestWarmQueryAllocs(t *testing.T) {
	open := func(ds *gen.Dataset) *db2rdf.Store {
		s, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTriples(ds.Triples); err != nil {
			t.Fatal(err)
		}
		return s
	}
	lubm, sp2b := lubmData(), sp2bData()
	stores := map[*gen.Dataset]*db2rdf.Store{lubm: open(lubm), sp2b: open(sp2b)}
	rel.SetParallelism(1, 0)
	defer rel.SetParallelism(0, 0)

	for _, tc := range []struct {
		name      string
		ds        *gen.Dataset
		maxAllocs float64
		maxBytes  uint64
	}{
		// Measured with each answer decoded into one binding slab and
		// one key arena; in parentheses with a binding slice per row and
		// a key string per term, then with columns resolved by alias and
		// name per execution, then with a Row header per row in arena
		// blocks, then with 40-byte Value cells, then earlier shapes.
		{"LQ1", lubm, 117, 7 << 10},         // 106 allocs, 6.4 KB (110 and 6.4 KB; 171 and 9.2 KB; 182 and 12.6 KB; 183 and 27.9 KB; 486 and 56.6 KB at 66-wide rows)
		{"LQ8", lubm, 239, 61 << 10},        // 217 allocs, 55.1 KB (376 and 55.5 KB; 505 and 62.9 KB; 560 and 112 KB; 561 and 238 KB; 1252 and 498 KB)
		{"SQ9 shape", lubm, 272, 173 << 10}, // 247 allocs, 157 KB (272 and 158 KB; 433 and 167 KB; 534 and 386 KB; 536 and 944 KB; 2521 and 1050 KB with one union arm per pair)
		{"SQ5a", sp2b, 197, 452 << 10},      // 179 allocs, 400 KB (841 and 411 KB; 937 and 416 KB; 1357 and 975 KB)
	} {
		s := stores[tc.ds]
		q := sq9Shape
		for _, cand := range tc.ds.Queries {
			if cand.Name == tc.name {
				q = cand.SPARQL
			}
		}
		run := func() {
			if _, err := s.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		run() // compile and cache the plan
		const runs = 50
		allocs := testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s warm: %.0f allocs, %d B per query", tc.name, allocs, bytes)
		if allocs > tc.maxAllocs {
			t.Errorf("%s warm: %.0f allocs per query, ceiling %.0f", tc.name, allocs, tc.maxAllocs)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s warm: %d B allocated per query, ceiling %d", tc.name, bytes, tc.maxBytes)
		}
	}
}

// TestColdCompileAllocs gates what one plan-cache miss allocates before
// its plan runs: SPARQL parse, optimizer, query plan, and the
// translation into a bound rel.Query, whose SQL text is printed once
// for EXPLAIN. The queries are those of TestWarmQueryAllocs over
// LUBM(4). The ceilings sit about 10% over the measured values. When
// the compile path printed SQL and parsed it back into the query it
// ran, it took 703, 1600 and 2974 allocations and 47.8, 103 and 226 KB.
func TestColdCompileAllocs(t *testing.T) {
	ds := lubmData()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		maxAllocs float64
		maxBytes  uint64
	}{
		{"LQ1", 460, 29 << 10},         // measured 419 allocs, 26.5 KB
		{"LQ8", 985, 66 << 10},         // measured 896 allocs, 59.5 KB
		{"SQ9 shape", 1400, 101 << 10}, // measured 1271 allocs, 91.7 KB
	} {
		q := sq9Shape
		for _, cand := range ds.Queries {
			if cand.Name == tc.name {
				q = cand.SPARQL
			}
		}
		compile := func() {
			if err := s.CompileForTest(q); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 50
		allocs := testing.AllocsPerRun(runs, compile)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			compile()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s cold compile: %.0f allocs, %d B", tc.name, allocs, bytes)
		if allocs > tc.maxAllocs {
			t.Errorf("%s cold compile: %.0f allocs, ceiling %.0f", tc.name, allocs, tc.maxAllocs)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s cold compile: %d B allocated, ceiling %d", tc.name, bytes, tc.maxBytes)
		}
	}
}
