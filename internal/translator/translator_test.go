package translator

import (
	"fmt"
	"strings"
	"testing"

	"db2rdf/internal/optimizer"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
)

// fig1Store loads the paper's Figure 1(a) data.
func fig1Store(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.New(store.Options{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	lit := rdf.NewLiteral
	mk := func(s, p string, o rdf.Term) rdf.Triple {
		return rdf.NewTriple(iri(s), iri(p), o)
	}
	triples := []rdf.Triple{
		mk("Charles_Flint", "born", lit("1850")),
		mk("Charles_Flint", "died", lit("1934")),
		mk("Charles_Flint", "founder", iri("IBM")),
		mk("Larry_Page", "born", lit("1973")),
		mk("Larry_Page", "founder", iri("Google")),
		mk("Larry_Page", "board", iri("Google")),
		mk("Larry_Page", "home", lit("Palo Alto")),
		mk("Google", "industry", lit("Software")),
		mk("Google", "industry", lit("Internet")),
		mk("Google", "employees", lit("54,604")),
		mk("Google", "revenue", lit("50B")),
		mk("Android", "developer", iri("Google")),
		mk("IBM", "industry", lit("Software")),
	}
	if err := st.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	return st
}

func planFor(t *testing.T, st *store.Store, q string) (*sparql.Query, *PlanNode, *DB2RDF) {
	t.Helper()
	parsed, err := sparql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	exec, _, err := optimizer.Optimize(parsed, st.StatsView())
	if err != nil {
		t.Fatal(err)
	}
	backend := NewDB2RDF(st.Snapshot())
	plan := NewPlanner(backend).BuildPlan(exec)
	return parsed, plan, backend
}

const fig6 = `
SELECT ?x ?y ?z WHERE {
  ?x <home> "Palo Alto" .
  { ?x <founder> ?y } UNION { ?x <board> ?y }
  { ?y <industry> "Software" .
    ?z <developer> ?y .
    ?y <revenue> ?n .
    OPTIONAL { ?y <employees> ?m } }
}`

func TestFig11PlanMerges(t *testing.T) {
	st := fig1Store(t)
	_, plan, _ := planFor(t, st, fig6)
	s := plan.String()
	if !strings.Contains(s, "{t2,t3}") {
		t.Errorf("OR merge missing: %s", s)
	}
	if !strings.Contains(s, "{t6,t7?}") {
		t.Errorf("OPT merge missing: %s", s)
	}
	if plan.MergeCount() != 2 {
		t.Errorf("MergeCount = %d, want 2 (Fig. 11)", plan.MergeCount())
	}
}

func TestStarMergesIntoOneAccess(t *testing.T) {
	st := fig1Store(t)
	_, plan, _ := planFor(t, st, `SELECT ?x WHERE { ?x <born> ?b . ?x <died> ?d . ?x <founder> ?f }`)
	if plan.Kind != PlanAccess || len(plan.Items) != 3 {
		t.Fatalf("3-star must merge into one access: %s", plan)
	}
	if plan.Merge != AndMerge {
		t.Fatalf("merge kind = %v", plan.Merge)
	}
}

func TestNoMergeAcrossDifferentEntities(t *testing.T) {
	st := fig1Store(t)
	// Two different subjects joined through a shared object variable:
	// nothing merges.
	_, plan, _ := planFor(t, st, `SELECT ?x ?y WHERE { ?x <born> ?b . ?y <died> ?b }`)
	if plan.MergeCount() != 0 {
		t.Fatalf("different-entity triples must not merge: %s", plan)
	}
	// t1 and t3 share ?x and merge; t2 (?y) stays separate.
	_, plan, _ = planFor(t, st, `SELECT ?x ?y WHERE { ?x <born> ?b . ?y <died> ?d . ?x <founder> ?y }`)
	if plan.MergeCount() != 1 {
		t.Fatalf("want exactly the {t1,t3} merge: %s", plan)
	}
}

func TestSpillBlocksMerge(t *testing.T) {
	// A store with K=2 spills; predicates involved in spills must not
	// merge (§3.2.1).
	st, err := store.New(store.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	for i, p := range []string{"p1", "p2", "p3", "p4", "p5"} {
		tr := rdf.NewTriple(iri("e"), iri(p), rdf.NewInteger(int64(i)))
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if st.Snapshot().SpillCount(false) == 0 {
		t.Skip("no spills at this layout")
	}
	parsed, err := sparql.Parse(`SELECT ?x WHERE { ?x <p1> ?a . ?x <p2> ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	exec, _, err := optimizer.Optimize(parsed, st.StatsView())
	if err != nil {
		t.Fatal(err)
	}
	backend := NewDB2RDF(st.Snapshot())
	plan := NewPlanner(backend).BuildPlan(exec)
	if plan.MergeCount() != 0 {
		t.Fatalf("spilled predicates must not merge: %s", plan)
	}
}

func TestSetMergingOff(t *testing.T) {
	st := fig1Store(t)
	parsed, err := sparql.Parse(`SELECT ?x WHERE { ?x <born> ?b . ?x <died> ?d }`)
	if err != nil {
		t.Fatal(err)
	}
	exec, _, err := optimizer.Optimize(parsed, st.StatsView())
	if err != nil {
		t.Fatal(err)
	}
	backend := NewDB2RDF(st.Snapshot())
	p := NewPlanner(backend)
	p.SetMerging(false)
	plan := p.BuildPlan(exec)
	if plan.MergeCount() != 0 {
		t.Fatalf("merging disabled but got merges: %s", plan)
	}
}

func TestGeneratedSQLParses(t *testing.T) {
	st := fig1Store(t)
	queries := []string{
		fig6,
		`SELECT ?x WHERE { ?x <born> ?b }`,
		`SELECT ?p ?o WHERE { <Google> ?p ?o }`,
		`SELECT ?x WHERE { ?x <industry> "Software" . ?x <employees> ?e } ORDER BY ?e LIMIT 5`,
		`ASK { <IBM> <industry> "Software" }`,
		`SELECT DISTINCT ?x WHERE { { ?x <founder> ?y } UNION { ?x <board> ?y } }`,
		`SELECT ?x ?d WHERE { ?x <born> ?b OPTIONAL { ?x <died> ?d } FILTER (bound(?d) || ?b < 1900) }`,
	}
	for _, q := range queries {
		parsed, plan, backend := planFor(t, st, q)
		res, err := Translate(parsed, plan, backend)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.SQL == "" {
			t.Fatalf("%s: empty SQL", q)
		}
		// The generated SQL must execute on the engine.
		q, err := rel.ParseQuery(res.SQL)
		if err == nil {
			_, err = st.DB.Exec(q)
		}
		if err != nil {
			t.Fatalf("%s: generated SQL failed: %v\n%s", q, err, res.SQL)
		}
	}
}

func TestSQLUsesSecondaryForMultiValued(t *testing.T) {
	st := fig1Store(t)
	parsed, plan, backend := planFor(t, st, `SELECT ?i WHERE { <Google> <industry> ?i }`)
	res, err := Translate(parsed, plan, backend)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.SQL, "DS") || !strings.Contains(res.SQL, "COALESCE") {
		t.Fatalf("multi-valued predicate must join DS with COALESCE:\n%s", res.SQL)
	}
}

func TestSQLSkipsSecondaryForSingleValued(t *testing.T) {
	st := fig1Store(t)
	parsed, plan, backend := planFor(t, st, `SELECT ?b WHERE { <Charles_Flint> <born> ?b }`)
	res, err := Translate(parsed, plan, backend)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.SQL, " DS ") {
		t.Fatalf("single-valued predicate must not join DS:\n%s", res.SQL)
	}
}

func TestUnknownConstantGetsMinusOne(t *testing.T) {
	st := fig1Store(t)
	parsed, plan, backend := planFor(t, st, `SELECT ?x WHERE { ?x <founder> <Martian> }`)
	res, err := Translate(parsed, plan, backend)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.SQL, "= -1") {
		t.Fatalf("absent constant must translate to -1:\n%s", res.SQL)
	}
}

func TestHiddenOrderColumns(t *testing.T) {
	st := fig1Store(t)
	parsed, plan, backend := planFor(t, st, `SELECT ?x WHERE { ?x <born> ?b } ORDER BY ?b`)
	res, err := Translate(parsed, plan, backend)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hidden != 1 || len(res.Columns) != 2 {
		t.Fatalf("hidden = %d, columns = %v", res.Hidden, res.Columns)
	}
}

func TestFilterTranslationModes(t *testing.T) {
	st := fig1Store(t)
	cases := []struct {
		filter string
		expect string
	}{
		{`?b < 1900`, "dnum("},                  // numeric literal comparison
		{`?b = ?d`, "="},                        // id equality
		{`regex(?b, "18")`, "regexmatch(dstr("}, // regex over string value
		{`str(?b) = "1850"`, "dstr("},           // string builtin
		{`lang(?b) = "en"`, "dlang("},           // lang builtin
		{`isIRI(?x)`, "disiri("},                // type test
		{`!bound(?d)`, "IS NOT NULL"},           // bound
		{`?b + 10 < 1900`, "(dnum("},            // arithmetic
	}
	for _, c := range cases {
		q := `SELECT ?x WHERE { ?x <born> ?b OPTIONAL { ?x <died> ?d } FILTER (` + c.filter + `) }`
		parsed, plan, backend := planFor(t, st, q)
		res, err := Translate(parsed, plan, backend)
		if err != nil {
			t.Fatalf("filter %q: %v", c.filter, err)
		}
		if !strings.Contains(res.SQL, c.expect) {
			t.Errorf("filter %q: SQL missing %q:\n%s", c.filter, c.expect, res.SQL)
		}
		rq, err := rel.ParseQuery(res.SQL)
		if err == nil {
			_, err = st.DB.Exec(rq)
		}
		if err != nil {
			t.Errorf("filter %q: SQL failed: %v", c.filter, err)
		}
	}
}

func TestUnsupportedFilterErrors(t *testing.T) {
	st := fig1Store(t)
	parsed, err := sparql.Parse(`SELECT ?x WHERE { ?x <born> ?b . FILTER (nosuchfn(?b)) }`)
	if err != nil {
		t.Fatal(err)
	}
	exec, _, err := optimizer.Optimize(parsed, st.StatsView())
	if err != nil {
		t.Fatal(err)
	}
	backend := NewDB2RDF(st.Snapshot())
	plan := NewPlanner(backend).BuildPlan(exec)
	if _, err := Translate(parsed, plan, backend); err == nil {
		t.Fatal("unknown builtin must fail translation")
	}
}

// TestVarPredicateLateralShape pins the access CTE of a variable-
// predicate triple to the paper's Figure 13 form: one pass over the
// primary relation with the k (pred, val) pairs flipped into rows by a
// lateral TABLE(VALUES ...), not one UNION arm per pair.
func TestVarPredicateLateralShape(t *testing.T) {
	st := fig1Store(t)
	pairs := make([]string, st.Snapshot().K(false))
	for c := range pairs {
		pairs[c] = fmt.Sprintf("(T.pred%d, T.val%d)", c, c)
	}
	lateral := "TABLE(VALUES " + strings.Join(pairs, ", ") + ") AS L(pred, val)"
	flint, _ := st.Snapshot().LookupID(rdf.NewIRI("Charles_Flint"))
	for _, c := range []struct{ query, qt1 string }{
		{`SELECT ?p ?o WHERE { <Charles_Flint> ?p ?o }`,
			fmt.Sprintf("SELECT L.pred AS v_p, L.val AS r0 FROM DPH AS T, %s WHERE T.entry = %d AND L.pred IS NOT NULL", lateral, flint)},
		{`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
			"SELECT T.entry AS v_s, L.pred AS v_p, L.val AS r0 FROM DPH AS T, " + lateral + " WHERE L.pred IS NOT NULL"},
		{`SELECT ?s ?o WHERE { ?s ?s ?o }`,
			"SELECT T.entry AS v_s, L.val AS r0 FROM DPH AS T, " + lateral + " WHERE L.pred IS NOT NULL AND L.pred = T.entry"},
	} {
		parsed, plan, backend := planFor(t, st, c.query)
		res, err := Translate(parsed, plan, backend)
		if err != nil {
			t.Fatal(err)
		}
		if want := "WITH QT1 AS (" + c.qt1 + "),\n"; !strings.HasPrefix(res.SQL, want) {
			t.Errorf("%s:\nwant prefix %s\ngot %s", c.query, want, res.SQL)
		}
		if strings.Contains(res.SQL, "UNION") {
			t.Errorf("%s: variable-predicate access must not union over the pair columns:\n%s", c.query, res.SQL)
		}
	}

	// Entity and predicate bound by an earlier access: both become
	// conditions of the one lateral core.
	parsed, plan, backend := planFor(t, st, `SELECT ?x ?o WHERE { ?x <born> ?p . ?x ?p ?o }`)
	res, err := Translate(parsed, plan, backend)
	if err != nil {
		t.Fatal(err)
	}
	if want := " AS P, DPH AS T, " + lateral + " WHERE T.entry = P.v_x AND L.pred IS NOT NULL AND L.pred = P.v_p)"; !strings.Contains(res.SQL, want) {
		t.Errorf("bound entity and predicate:\nwant %s\nin %s", want, res.SQL)
	}
}

func TestPlanStringShapes(t *testing.T) {
	st := fig1Store(t)
	_, plan, _ := planFor(t, st, fig6)
	s := plan.String()
	for _, want := range []string{"AND[", ":or)", ":opt)"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan %q missing %q", s, want)
		}
	}
}

func TestMergeKindStrings(t *testing.T) {
	for k, want := range map[MergeKind]string{NoMerge: "none", AndMerge: "and", OrMerge: "or", OptMerge: "opt"} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
}
