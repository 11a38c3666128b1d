package db2rdf_test

// The write-stable plan cache: a compiled plan is valid for as long as
// the snapshot's plan epoch (the spill and multi-value markers) stays
// put, and, when it compiled a constant absent from the dictionary,
// for its data epoch only. Every answer below — from a cached plan or
// a fresh compile, on the latest snapshot or on one held from before
// later writes — is refereed by the brute-force oracle.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
)

// bruteForceQuery evaluates a query whose WHERE clause is built from
// triple runs, AND and UNION by expanding it into a union of
// conjunctive patterns, each matched by bruteForce, and returns the
// canonical rows.
func bruteForceQuery(t *testing.T, triples []rdf.Triple, text string) []string {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if q.Ask || q.Star || q.Distinct || len(q.OrderBy) > 0 || q.Limit >= 0 || len(q.Closures) > 0 {
		t.Fatalf("oracle: unsupported query form: %s", text)
	}
	var expand func(p *sparql.Pattern) [][]*sparql.TriplePattern
	expand = func(p *sparql.Pattern) [][]*sparql.TriplePattern {
		if len(p.Filters) > 0 {
			t.Fatalf("oracle: FILTER unsupported: %s", text)
		}
		switch p.Kind {
		case sparql.Simple:
			return [][]*sparql.TriplePattern{p.Triples}
		case sparql.Or:
			var out [][]*sparql.TriplePattern
			for _, c := range p.Children {
				out = append(out, expand(c)...)
			}
			return out
		case sparql.And:
			out := [][]*sparql.TriplePattern{p.Triples}
			for _, c := range p.Children {
				var next [][]*sparql.TriplePattern
				for _, left := range out {
					for _, right := range expand(c) {
						next = append(next, append(append([]*sparql.TriplePattern(nil), left...), right...))
					}
				}
				out = next
			}
			return out
		}
		t.Fatalf("oracle: %s pattern unsupported: %s", p.Kind, text)
		return nil
	}
	var rows [][]string
	for _, conj := range expand(q.Where) {
		rows = append(rows, bruteForce(withPredicates(triples, conj), conj, q.Vars)...)
	}
	return canonical(rows)
}

// withPredicates narrows triples to those a conjunctive pattern can
// match when all its predicates are constants, which keeps the
// backtracking affordable on LUBM.
func withPredicates(triples []rdf.Triple, conj []*sparql.TriplePattern) []rdf.Triple {
	preds := map[rdf.Term]bool{}
	for _, p := range conj {
		if p.P.IsVar {
			return triples
		}
		preds[p.P.Term] = true
	}
	var out []rdf.Triple
	for _, tr := range triples {
		if preds[tr.P] {
			out = append(out, tr)
		}
	}
	return out
}

// answerRows returns a result set's canonical rows, in the oracle's
// spelling.
func answerRows(res *db2rdf.Results) []string {
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = make([]string, len(row))
		for j, b := range row {
			if b.Bound {
				rows[i][j] = b.Term.String()
			}
		}
	}
	return canonical(rows)
}

// cacheRun drives one store through a write history, keeping the
// triple set it should hold beside it.
type cacheRun struct {
	t       *testing.T
	s       *db2rdf.Store
	model   map[rdf.Triple]bool
	queries []namedQuery
}

type namedQuery struct{ name, text string }

func (h *cacheRun) triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(h.model))
	for tr := range h.model {
		out = append(out, tr)
	}
	return out
}

func (h *cacheRun) added(ts ...rdf.Triple) {
	for _, tr := range ts {
		h.model[tr] = true
	}
}

func (h *cacheRun) removed(ts ...rdf.Triple) {
	for _, tr := range ts {
		delete(h.model, tr)
	}
}

func (h *cacheRun) planEpoch() uint64 { return h.s.Internal().Snapshot().PlanEpoch() }

// check runs every query on the latest snapshot, referees each answer
// against the oracle, and returns the names of the queries whose plan
// came from the cache.
func (h *cacheRun) check(step string) map[string]bool {
	h.t.Helper()
	data := h.triples()
	hits := map[string]bool{}
	for _, q := range h.queries {
		h0, _ := h.s.PlanCacheStats()
		res, err := h.s.Query(q.text)
		if err != nil {
			h.t.Fatalf("%s: %s: %v", step, q.name, err)
		}
		if h1, _ := h.s.PlanCacheStats(); h1 > h0 {
			hits[q.name] = true
		}
		if got, want := answerRows(res), bruteForceQuery(h.t, data, q.text); !slices.Equal(got, want) {
			h.t.Fatalf("%s: %s (cached plan %v):\n got  %q\n want %q", step, q.name, hits[q.name], got, want)
		}
	}
	return hits
}

// expectHits fails unless exactly the named queries hit.
func (h *cacheRun) expectHits(step string, hits map[string]bool, names ...string) {
	h.t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, q := range h.queries {
		if hits[q.name] != want[q.name] {
			h.t.Fatalf("%s: %s hit=%v, want %v", step, q.name, hits[q.name], want[q.name])
		}
	}
}

// TestPlanCacheAcrossWrites interleaves cached reads with every write
// path on a K=1 store, where a second predicate always spills. It drives
// each trigger of the plan epoch and the absent-constant rule, checks
// that marker-stable stretches hit, and runs readers on held snapshots
// against plans compiled on newer ones while a writer moves markers.
func TestPlanCacheAcrossWrites(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	tr := func(s, p, o string) rdf.Triple { return rdf.NewTriple(iri(s), iri(p), iri(o)) }
	h := &cacheRun{t: t, s: s, model: map[rdf.Triple]bool{}, queries: []namedQuery{
		{"multi", `SELECT ?s ?o WHERE { ?s <m> ?o }`},
		{"point", `SELECT ?o WHERE { <a0> <m> ?o }`},
		{"reverse", `SELECT ?s WHERE { ?s <m> <x1> }`},
		{"star", `SELECT ?s ?a ?b WHERE { ?s <q1> ?a . ?s <q2> ?b }`},
		{"union", `SELECT ?s WHERE { { ?s <q1> ?a } UNION { ?s <m> <x0> } }`},
		{"lateObject", `SELECT ?s WHERE { ?s <m> <late> }`},
		{"latePred", `SELECT ?s ?o WHERE { ?s <latep> ?o }`},
	}}
	stable := []string{"multi", "point", "reverse", "star", "union"}
	all := append(append([]string(nil), stable...), "lateObject", "latePred")

	// No spills (one predicate per entity) and no lists.
	initial := []rdf.Triple{
		tr("a0", "m", "x0"), tr("a1", "m", "x1"), tr("a2", "m", "x2"),
		tr("b0", "q1", "y0"), tr("b1", "q2", "y1"),
	}
	if err := s.LoadTriples(initial); err != nil {
		t.Fatal(err)
	}
	h.added(initial...)
	h.expectHits("first read", h.check("first read"))
	h.expectHits("repeat", h.check("repeat"), all...)

	// Marker-stable writes keep every plan whose constants all exist;
	// plans that compiled <late> or <latep> to -1 are valid at their
	// data epoch only.
	p0 := h.planEpoch()
	if err := s.Insert(tr("a3", "m", "x3")); err != nil {
		t.Fatal(err)
	}
	h.added(tr("a3", "m", "x3"))
	h.expectHits("Insert", h.check("Insert"), stable...)
	if _, err := s.Update(`INSERT DATA { <a4> <m> <x4> }`); err != nil {
		t.Fatal(err)
	}
	h.added(tr("a4", "m", "x4"))
	h.expectHits("Update", h.check("Update"), stable...)
	if p := h.planEpoch(); p != p0 {
		t.Fatalf("marker-stable writes moved the plan epoch %d -> %d", p0, p)
	}

	// Single → multi-valued: the cached star over <m> must gain its DS
	// join, so every plan is stale.
	if err := s.Insert(tr("a0", "m", "x9")); err != nil {
		t.Fatal(err)
	}
	h.added(tr("a0", "m", "x9"))
	h.expectHits("multi-valued", h.check("multi-valued"))
	h.expectHits("multi-valued repeat", h.check("multi-valued repeat"), all...)

	// A first spill: <b0> gets a second predicate, which K=1 puts on a
	// new row, so the merged <q1>/<q2> star is no longer safe.
	if _, err := s.Update(`INSERT DATA { <b0> <q2> <y2> }`); err != nil {
		t.Fatal(err)
	}
	h.added(tr("b0", "q2", "y2"))
	h.expectHits("spill", h.check("spill"))
	h.expectHits("spill repeat", h.check("spill repeat"), all...)

	// Constants absent at compile time appear, through the bulk
	// loader, without moving a marker.
	p1 := h.planEpoch()
	late := []rdf.Triple{tr("a5", "m", "late"), tr("c0", "latep", "c1")}
	if err := s.LoadTriples(late); err != nil {
		t.Fatal(err)
	}
	h.added(late...)
	h.expectHits("absent constants", h.check("absent constants"), stable...)
	if p := h.planEpoch(); p != p1 {
		t.Fatalf("loading the absent constants moved the plan epoch %d -> %d", p1, p)
	}
	// Now every constant exists: writes keep all plans.
	if err := s.Insert(tr("a6", "m", "x6")); err != nil {
		t.Fatal(err)
	}
	h.added(tr("a6", "m", "x6"))
	h.expectHits("after absent", h.check("after absent"), all...)

	// Delete churn. A delete that compacts nothing leaves the markers
	// (conservatively) as they were; one whose publish compacts a chunk
	// derives them exactly, which clears <m>'s multi-value marker.
	var fillers []rdf.Triple
	for i := 0; i < 300; i++ {
		fillers = append(fillers, tr(fmt.Sprintf("f%d", i), "fp", fmt.Sprintf("fv%d", i)))
	}
	if err := s.LoadTriples(fillers); err != nil {
		t.Fatal(err)
	}
	h.added(fillers...)
	h.expectHits("fillers", h.check("fillers"), all...)
	if _, err := s.DeleteTriples([]rdf.Triple{tr("a3", "m", "x3")}); err != nil {
		t.Fatal(err)
	}
	h.removed(tr("a3", "m", "x3"))
	h.expectHits("delete", h.check("delete"), all...)
	p2 := h.planEpoch()
	churn := append([]rdf.Triple{tr("a0", "m", "x9")}, fillers...)
	if _, err := s.DeleteTriples(churn); err != nil {
		t.Fatal(err)
	}
	h.removed(churn...)
	if p := h.planEpoch(); p == p2 {
		t.Fatalf("compacting delete churn left the plan epoch at %d", p)
	}
	h.expectHits("compaction", h.check("compaction"))
	h.expectHits("compaction repeat", h.check("compaction repeat"), all...)

	// Clear drops the spill markers; the dictionary survives it, so
	// plans compiled on the empty store keep their ids and stay valid
	// across the reload, which sets no marker.
	if _, err := s.Update(`CLEAR DEFAULT`); err != nil {
		t.Fatal(err)
	}
	h.model = map[rdf.Triple]bool{}
	h.expectHits("clear", h.check("clear"))
	if err := s.LoadTriples(initial); err != nil {
		t.Fatal(err)
	}
	h.added(initial...)
	h.expectHits("reload", h.check("reload"), all...)

	// Held snapshots, one per marker-stable write, each with its oracle
	// answers.
	type held struct {
		snap *store.Snapshot
		want map[string][]string
	}
	hold := func() held {
		data := h.triples()
		hs := held{snap: s.Internal().Snapshot(), want: map[string][]string{}}
		for _, q := range h.queries {
			hs.want[q.name] = bruteForceQuery(t, data, q.text)
		}
		return hs
	}
	snaps := []held{hold()}
	for i := 0; i < 3; i++ {
		ts := []rdf.Triple{tr(fmt.Sprintf("d%d", i), "m", fmt.Sprintf("e%d", i)), tr(fmt.Sprintf("b%d", i+5), "q1", fmt.Sprintf("z%d", i))}
		if err := s.LoadTriples(ts); err != nil {
			t.Fatal(err)
		}
		h.added(ts...)
		snaps = append(snaps, hold())
	}
	// The latest snapshot compiled nothing new: its plans were compiled
	// at the reload, and the oldest held snapshot runs them.
	h.expectHits("held", h.check("held"), all...)
	for _, q := range h.queries {
		h0, _ := s.PlanCacheStats()
		res, err := s.QueryOnForTest(snaps[0].snap, q.text)
		if err != nil {
			t.Fatal(err)
		}
		if h1, _ := s.PlanCacheStats(); h1 != h0+1 {
			t.Fatalf("held snapshot: %s missed a plan compiled at its plan epoch", q.name)
		}
		if got := answerRows(res); !slices.Equal(got, snaps[0].want[q.name]) {
			t.Fatalf("held snapshot: %s:\n got  %q\n want %q", q.name, got, snaps[0].want[q.name])
		}
	}

	// Concurrently: readers on the held snapshots, readers on the
	// latest, and a writer whose second write makes <m> multi-valued
	// again, so plans at two plan epochs contend for each cache entry.
	// Latest readers check the queries the writer does not touch.
	untouched := map[string]bool{"point": true, "star": true, "lateObject": true, "latePred": true}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				hs := snaps[(r+i)%len(snaps)]
				for _, q := range h.queries {
					res, err := s.QueryOnForTest(hs.snap, q.text)
					if err != nil {
						t.Error(err)
						return
					}
					if got := answerRows(res); !slices.Equal(got, hs.want[q.name]) {
						t.Errorf("held reader %d: %s:\n got  %q\n want %q", r, q.name, got, hs.want[q.name])
						return
					}
				}
			}
		}(r)
	}
	latest := snaps[len(snaps)-1].want
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			for _, q := range h.queries {
				res, err := s.Query(q.text)
				if err != nil {
					t.Error(err)
					return
				}
				if got := answerRows(res); untouched[q.name] && !slices.Equal(got, latest[q.name]) {
					t.Errorf("latest reader: %s:\n got  %q\n want %q", q.name, got, latest[q.name])
					return
				}
			}
		}
	}()
	writes := []rdf.Triple{tr("g0", "m", "h0"), tr("a1", "m", "x99"), tr("g1", "m", "h1")}
	for _, w := range writes {
		if err := s.Insert(w); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	h.added(writes...)
	h.check("after concurrency")
}

// TestPlanAnswersIndependentOfStatistics compiles every LUBM template
// on one snapshot and executes the cached plans on a later one, after
// writes that moved the optimizer's statistics but no marker. Each
// answer equals a fresh compile on the later snapshot and the oracle.
func TestPlanAnswersIndependentOfStatistics(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var data []rdf.Triple // the generator's triples, without its duplicates
	seen := map[rdf.Triple]bool{}
	for _, tr := range gen.LUBM(1).Triples {
		if !seen[tr] {
			seen[tr] = true
			data = append(data, tr)
		}
	}
	if err := s.LoadTriples(data); err != nil {
		t.Fatal(err)
	}
	templates := gen.LUBMQueries()
	first := s.Internal().Snapshot()
	for _, q := range templates {
		if _, err := s.QueryOnForTest(first, q.SPARQL); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}

	// New graduate students of Dept0 taking Course5: more triples in
	// total and higher counts for the templates' constants.
	course := rdf.NewIRI("http://lubm/Course5.D0.U0")
	dept := rdf.NewIRI("http://lubm/Dept0.U0")
	var burst []rdf.Triple
	const n = 100
	for i := 0; i < n; i++ {
		st := rdf.NewIRI(fmt.Sprintf("http://lubm/Burst%d", i))
		burst = append(burst,
			rdf.NewTriple(st, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://lubm/GraduateStudent")),
			rdf.NewTriple(st, rdf.NewIRI("http://lubm/takesCourse"), course),
			rdf.NewTriple(st, rdf.NewIRI("http://lubm/memberOf"), dept))
	}
	if err := s.LoadTriples(burst); err != nil {
		t.Fatal(err)
	}
	data = append(data, burst...)
	later := s.Internal().Snapshot()
	if later.PlanEpoch() != first.PlanEpoch() {
		t.Fatalf("the burst moved a marker (plan epoch %d -> %d)", first.PlanEpoch(), later.PlanEpoch())
	}
	before, _ := first.StatsView().ObjectCount(course)
	after, _ := later.StatsView().ObjectCount(course)
	if after != before+n || later.StatsView().TotalTriples() != first.StatsView().TotalTriples()+3*n {
		t.Fatalf("the burst should move the statistics: course count %v -> %v", before, after)
	}

	cached := map[string][]string{}
	for _, q := range templates {
		h0, _ := s.PlanCacheStats()
		res, err := s.QueryOnForTest(later, q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if h1, _ := s.PlanCacheStats(); h1 != h0+1 {
			t.Fatalf("%s: the plan compiled on the first snapshot was not reused", q.Name)
		}
		cached[q.Name] = answerRows(res)
	}
	s.ResetPlanCache()
	for _, q := range templates {
		fresh, err := s.QueryOnForTest(later, q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		got, want := cached[q.Name], answerRows(fresh)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: cached plan %d rows, fresh compile %d rows", q.Name, len(got), len(want))
		}
		if oracle := bruteForceQuery(t, data, q.SPARQL); !slices.Equal(got, oracle) {
			t.Fatalf("%s: %d rows, oracle %d", q.Name, len(got), len(oracle))
		}
	}
}
