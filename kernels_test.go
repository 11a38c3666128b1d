package db2rdf_test

// End-to-end equivalence and plan-cache tests for the PR 2 executor
// kernels: every query in the benchmark corpus (plus random BGPs from
// the oracle generator) must produce identical results with morsel
// parallelism forced off and forced on, and the compiled-plan cache
// must be invisible except for speed — in particular it must
// invalidate whenever a spill or multi-value marker changes.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// renderResults flattens a result set for order-insensitive comparison.
func renderResults(res *db2rdf.Results) [][]string {
	if res.IsAsk {
		return [][]string{{fmt.Sprintf("ASK=%v", res.Ask)}}
	}
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		r := make([]string, len(row))
		for j, b := range row {
			r[j] = b.String()
		}
		out[i] = r
	}
	return out
}

// runCorpus executes each query sequentially and with parallelism
// forced on, failing on any result divergence.
func runCorpus(t *testing.T, s *db2rdf.Store, label string, queries []gen.Query) {
	t.Helper()
	for _, q := range queries {
		rel.SetParallelism(1, 0) // sequential kernels
		seqRes, err := s.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s/%s (sequential): %v", label, q.Name, err)
		}
		seq := canonical(renderResults(seqRes))
		rel.SetParallelism(4, 1) // every eligible operator runs parallel
		parRes, err := s.Query(q.SPARQL)
		if err != nil {
			t.Fatalf("%s/%s (parallel): %v", label, q.Name, err)
		}
		par := canonical(renderResults(parRes))
		if len(seq) != len(par) {
			t.Errorf("%s/%s: row count differs: sequential=%d parallel=%d", label, q.Name, len(seq), len(par))
			continue
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Errorf("%s/%s: row %d differs:\nseq: %s\npar: %s", label, q.Name, i, seq[i], par[i])
				break
			}
		}
	}
}

// TestKernelEquivalence runs the benchmark workloads and a batch of
// random BGPs with the parallel kernels forced off and on; results
// must match exactly. ci.sh runs this under -race, which also makes it
// the data-race probe for the morsel partitioning.
func TestKernelEquivalence(t *testing.T) {
	defer rel.SetParallelism(0, 0)
	datasets := []*gen.Dataset{gen.Micro(5000), gen.LUBM(1)}
	for _, ds := range datasets {
		s, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTriples(ds.Triples); err != nil {
			t.Fatal(err)
		}
		runCorpus(t, s, ds.Name, ds.Queries)
	}

	// Oracle-style random BGPs over random datasets.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		triples := randomDataset(r)
		s, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTriples(triples); err != nil {
			t.Fatal(err)
		}
		var queries []gen.Query
		for j := 0; j < 8; j++ {
			_, sparqlText := randomBGP(r)
			queries = append(queries, gen.Query{Name: fmt.Sprintf("bgp%d_%d", i, j), SPARQL: sparqlText})
		}
		runCorpus(t, s, fmt.Sprintf("random%d", i), queries)
	}
}

// TestPlanCacheInvalidation checks the plan-epoch contract: a write
// that changes no marker keeps the cached plan, which then answers with
// the write included; a write that adds a marker stales it.
func TestPlanCacheInvalidation(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) rdf.Triple {
		return rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("s%d", i)), rdf.NewIRI("p"), rdf.NewIRI("o"))
	}
	if err := s.LoadTriples([]rdf.Triple{mk(0), mk(1)}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT ?s WHERE { ?s <p> <o> }`
	res := s.MustQuery(q)
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 rows before load, got %d", len(res.Rows))
	}
	cached := func() bool {
		t.Helper()
		expl, err := s.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return expl.PlanCached
	}
	// The plan is now cached and valid.
	if !cached() {
		t.Fatal("plan should be cached after first execution")
	}

	// Appending to <o>'s existing reverse list sets no marker: the plan
	// stays cached and the same query text sees the new triple.
	if err := s.Insert(mk(2)); err != nil {
		t.Fatal(err)
	}
	if !cached() {
		t.Fatal("cached plan must survive a marker-stable Insert")
	}
	h0, _ := s.PlanCacheStats()
	if res = s.MustQuery(q); len(res.Rows) != 3 {
		t.Fatalf("want 3 rows after Insert, got %d", len(res.Rows))
	}
	if h1, _ := s.PlanCacheStats(); h1 != h0+1 {
		t.Fatalf("query after a marker-stable Insert must hit: hits %d -> %d", h0, h1)
	}

	// A second value of <p> on <s0> makes <p> multi-valued on the
	// direct side: a new marker, so the plan is stale.
	if err := s.Insert(rdf.NewTriple(rdf.NewIRI("s0"), rdf.NewIRI("p"), rdf.NewIRI("o2"))); err != nil {
		t.Fatal(err)
	}
	if cached() {
		t.Fatal("cached plan must be stale after an Insert that adds a marker")
	}
	if res = s.MustQuery(q); len(res.Rows) != 3 {
		t.Fatalf("want 3 rows after the marker Insert, got %d", len(res.Rows))
	}

	// Bulk load of marker-stable triples.
	if err := s.LoadTriples([]rdf.Triple{mk(3), mk(4)}); err != nil {
		t.Fatal(err)
	}
	if !cached() {
		t.Fatal("cached plan must survive a marker-stable LoadTriples")
	}
	if res = s.MustQuery(q); len(res.Rows) != 5 {
		t.Fatalf("want 5 rows after LoadTriples, got %d", len(res.Rows))
	}
}

// TestPlanCacheHits checks the hit/miss accounting and ResetPlanCache.
func TestPlanCacheHits(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples([]rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o")),
	}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT ?s WHERE { ?s <p> ?o }`
	s.MustQuery(q)
	h0, m0 := s.PlanCacheStats()
	if h0 != 0 || m0 != 1 {
		t.Fatalf("after first query: want 0 hits / 1 miss, got %d/%d", h0, m0)
	}
	s.MustQuery(q)
	s.MustQuery(q)
	h1, m1 := s.PlanCacheStats()
	if h1 != 2 || m1 != 1 {
		t.Fatalf("after repeats: want 2 hits / 1 miss, got %d/%d", h1, m1)
	}
	s.ResetPlanCache()
	s.MustQuery(q)
	h2, m2 := s.PlanCacheStats()
	if h2 != 2 || m2 != 2 {
		t.Fatalf("after reset: want 2 hits / 2 misses, got %d/%d", h2, m2)
	}
	expl, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !expl.PlanCached || expl.PlanCacheHits != 2 || expl.PlanCacheMisses != 2 {
		t.Fatalf("Explain cache stats wrong: %+v", expl)
	}
}

// TestPlanCacheKeepsClosures: a path query and an inference query read
// their closures by stable relation names, so both are plan-cached on
// repeat, stay cached across a write that sets no marker, and answer
// from the pairs of the snapshot they run on.
func TestPlanCacheKeepsClosures(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{Inference: true})
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	sub := iri("http://www.w3.org/2000/01/rdf-schema#subClassOf")
	typ := iri(rdf.RDFType)
	if err := s.LoadTriples([]rdf.Triple{
		rdf.NewTriple(iri("a"), iri("p"), iri("b")),
		rdf.NewTriple(iri("b"), iri("p"), iri("c")),
		rdf.NewTriple(iri("Student"), sub, iri("Person")),
		rdf.NewTriple(iri("sam"), typ, iri("Student")),
	}); err != nil {
		t.Fatal(err)
	}
	const path = `SELECT ?x WHERE { <a> <p>+ ?x }`
	const infer = `SELECT ?x WHERE { ?x <` + rdf.RDFType + `> <Person> }`
	answer := func(q string) []string {
		t.Helper()
		res := s.MustQuery(q)
		var out []string
		for _, row := range res.Rows {
			out = append(out, row[0].Term.Value)
		}
		sort.Strings(out)
		return out
	}
	cached := func(step, q string) {
		t.Helper()
		expl, err := s.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !expl.PlanCached {
			t.Fatalf("%s: %s is not plan-cached", step, q)
		}
	}
	check := func(step, q, want string) {
		t.Helper()
		hits, _ := s.PlanCacheStats()
		if got := strings.Join(answer(q), ","); got != want {
			t.Fatalf("%s: %s = %s, want %s", step, q, got, want)
		}
		if after, _ := s.PlanCacheStats(); after <= hits {
			t.Fatalf("%s: %s did not hit the plan cache", step, q)
		}
		cached(step, q)
	}
	answer(path)
	answer(infer)
	check("repeat", path, "b,c")
	check("repeat", infer, "sam")

	epoch := s.Internal().Snapshot().PlanEpoch()
	if err := s.LoadTriples([]rdf.Triple{
		rdf.NewTriple(iri("c"), iri("p"), iri("d")),
		rdf.NewTriple(iri("Postdoc"), sub, iri("Student")),
		rdf.NewTriple(iri("pia"), typ, iri("Postdoc")),
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Internal().Snapshot().PlanEpoch(); got != epoch {
		t.Fatalf("the write moved the plan epoch %d -> %d; it must set no marker", epoch, got)
	}
	cached("after a marker-stable write", path)
	cached("after a marker-stable write", infer)
	check("after a marker-stable write", path, "b,c,d")
	check("after a marker-stable write", infer, "pia,sam")
}
