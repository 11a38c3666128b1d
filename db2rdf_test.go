package db2rdf

import (
	"sort"
	"strings"
	"testing"

	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// fig1 loads the paper's Figure 1(a) sample data.
func fig1(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
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
		mk("Android", "developer", iri("Google")),
		mk("Android", "version", lit("4.1")),
		mk("Android", "kernel", iri("Linux")),
		mk("Android", "preceded", lit("4.0")),
		mk("Android", "graphics", iri("OpenGL")),
		mk("Google", "industry", lit("Software")),
		mk("Google", "industry", lit("Internet")),
		mk("Google", "employees", lit("54,604")),
		mk("Google", "HQ", lit("Mountain View")),
		mk("Google", "revenue", lit("50B")),
		mk("IBM", "industry", lit("Software")),
		mk("IBM", "industry", lit("Hardware")),
		mk("IBM", "industry", lit("Services")),
		mk("IBM", "employees", lit("433,362")),
		mk("IBM", "HQ", lit("Armonk")),
	}
	if err := s.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	return s
}

func bindings(rs *Results, v string) []string {
	idx := -1
	for i, name := range rs.Vars {
		if name == v {
			idx = i
		}
	}
	var out []string
	for _, row := range rs.Rows {
		if idx >= 0 && row[idx].Bound {
			out = append(out, row[idx].Term.Value)
		} else {
			out = append(out, "")
		}
	}
	sort.Strings(out)
	return out
}

func TestSimpleLookup(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?who WHERE { ?who <founder> <IBM> }`)
	if got := bindings(rs, "who"); len(got) != 1 || got[0] != "Charles_Flint" {
		t.Fatalf("founder of IBM = %v", got)
	}
}

func TestStarQuery(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?x WHERE { ?x <born> ?b . ?x <founder> ?c . ?x <died> ?d }`)
	if got := bindings(rs, "x"); len(got) != 1 || got[0] != "Charles_Flint" {
		t.Fatalf("star query = %v", got)
	}
}

func TestMultiValuedPredicate(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?i WHERE { <IBM> <industry> ?i }`)
	got := bindings(rs, "i")
	want := []string{"Hardware", "Services", "Software"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("IBM industries = %v, want %v", got, want)
	}
}

func TestReverseAccess(t *testing.T) {
	s := fig1(t, Options{})
	// Companies in the Software industry: object-keyed access with a
	// multi-valued reverse predicate (RS join).
	rs := s.MustQuery(`SELECT ?c WHERE { ?c <industry> "Software" }`)
	got := bindings(rs, "c")
	want := []string{"Google", "IBM"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("software companies = %v, want %v", got, want)
	}
}

func TestFig6RunningExample(t *testing.T) {
	// The paper's Figure 6 query: founders or board members of
	// software companies, their developed products, revenue, and
	// optionally employees.
	s := fig1(t, Options{})
	q := `SELECT ?x ?y ?z ?m WHERE {
	  ?x <home> "Palo Alto" .
	  { ?x <founder> ?y } UNION { ?x <board> ?y }
	  { ?y <industry> "Software" .
	    ?z <developer> ?y .
	    ?y <revenue> ?n .
	    OPTIONAL { ?y <employees> ?m } }
	}`
	rs := s.MustQuery(q)
	// Larry Page founded Google AND is on its board: two solutions,
	// both with y=Google, z=Android, m=54,604.
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 solutions, got %d: %v", len(rs.Rows), rs.Rows)
	}
	for _, row := range rs.Rows {
		vals := map[string]string{}
		for i, v := range rs.Vars {
			if row[i].Bound {
				vals[v] = row[i].Term.Value
			}
		}
		if vals["x"] != "Larry_Page" || vals["y"] != "Google" || vals["z"] != "Android" || vals["m"] != "54,604" {
			t.Fatalf("unexpected solution %v", vals)
		}
	}
}

func TestFig6PlanMerges(t *testing.T) {
	s := fig1(t, Options{})
	q := `SELECT ?x WHERE {
	  ?x <home> "Palo Alto" .
	  { ?x <founder> ?y } UNION { ?x <board> ?y }
	  { ?y <industry> "Software" .
	    ?z <developer> ?y .
	    ?y <revenue> ?n .
	    OPTIONAL { ?y <employees> ?m } }
	}`
	ex, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 11: the OR block {t2,t3} merges, and {t6,t7} merges as an
	// optional star.
	if !strings.Contains(ex.Plan, "{t2,t3}") {
		t.Errorf("plan missing OR merge: %s", ex.Plan)
	}
	if !strings.Contains(ex.Plan, "{t6,t7?}") {
		t.Errorf("plan missing OPT merge: %s", ex.Plan)
	}
	if !strings.Contains(ex.SQL, "LEFT OUTER JOIN") {
		t.Errorf("SQL missing secondary-relation outer join:\n%s", ex.SQL)
	}
}

func TestOptionalUnbound(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?x ?d WHERE { ?x <born> ?b OPTIONAL { ?x <died> ?d } }`)
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rs.Rows))
	}
	byX := map[string]bool{}
	for _, row := range rs.Rows {
		x := row[0].Term.Value
		byX[x] = row[1].Bound
	}
	if !byX["Charles_Flint"] {
		t.Error("Charles Flint died; ?d must be bound")
	}
	if byX["Larry_Page"] {
		t.Error("Larry Page has no died triple; ?d must be unbound")
	}
}

func TestAsk(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`ASK { <IBM> <industry> "Software" }`)
	if !rs.Ask {
		t.Fatal("ASK must be true")
	}
	rs = s.MustQuery(`ASK { <IBM> <industry> "Agriculture" }`)
	if rs.Ask {
		t.Fatal("ASK must be false")
	}
}

func TestUnknownConstantEmpty(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?x WHERE { ?x <founder> <Nonexistent> }`)
	if len(rs.Rows) != 0 {
		t.Fatalf("want empty result, got %v", rs.Rows)
	}
}

func TestFilterNumeric(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, age := range []int64{25, 30, 35} {
		subj := rdf.NewIRI(strings.Repeat("p", i+1))
		if err := s.Insert(rdf.NewTriple(subj, rdf.NewIRI("age"), rdf.NewInteger(age))); err != nil {
			t.Fatal(err)
		}
	}
	rs := s.MustQuery(`SELECT ?x ?a WHERE { ?x <age> ?a . FILTER (?a > 26) }`)
	if len(rs.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rs.Rows))
	}
	rs = s.MustQuery(`SELECT ?x WHERE { ?x <age> ?a . FILTER (?a + 10 >= 45) }`)
	if len(rs.Rows) != 1 {
		t.Fatalf("arithmetic filter: want 1 row, got %d", len(rs.Rows))
	}
}

func TestFilterRegexAndBound(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?x WHERE { ?x <HQ> ?h . FILTER regex(?h, "^Mountain") }`)
	if got := bindings(rs, "x"); len(got) != 1 || got[0] != "Google" {
		t.Fatalf("regex filter = %v", got)
	}
	rs = s.MustQuery(`SELECT ?x WHERE { ?x <born> ?b OPTIONAL { ?x <died> ?d } FILTER (!bound(?d)) }`)
	if got := bindings(rs, "x"); len(got) != 1 || got[0] != "Larry_Page" {
		t.Fatalf("bound filter = %v", got)
	}
}

func TestOrderByLimit(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?x ?b WHERE { ?x <born> ?b } ORDER BY DESC(?b) LIMIT 1`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Term.Value != "Larry_Page" {
		t.Fatalf("order by desc born: %v", rs.Rows)
	}
	// ORDER BY an unprojected variable uses a hidden column.
	rs = s.MustQuery(`SELECT ?x WHERE { ?x <born> ?b } ORDER BY ?b`)
	if len(rs.Vars) != 1 || rs.Vars[0] != "x" {
		t.Fatalf("hidden order column leaked: %v", rs.Vars)
	}
	if rs.Rows[0][0].Term.Value != "Charles_Flint" {
		t.Fatalf("ascending order wrong: %v", rs.Rows)
	}
}

func TestDistinct(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT DISTINCT ?p WHERE { ?p <industry> ?i }`)
	if len(rs.Rows) != 2 {
		t.Fatalf("distinct companies with industry: want 2, got %d", len(rs.Rows))
	}
}

func TestVariablePredicate(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?p ?o WHERE { <Charles_Flint> ?p ?o }`)
	if len(rs.Rows) != 3 {
		t.Fatalf("Charles Flint has 3 triples, got %d: %v", len(rs.Rows), rs.Rows)
	}
	preds := bindings(rs, "p")
	want := []string{"born", "died", "founder"}
	if strings.Join(preds, ",") != strings.Join(want, ",") {
		t.Fatalf("predicates = %v", preds)
	}
}

func TestVariablePredicateMultiValued(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?p ?o WHERE { <IBM> ?p ?o }`)
	// industry x3 + employees + HQ = 5 bindings.
	if len(rs.Rows) != 5 {
		t.Fatalf("IBM has 5 bindings, got %d: %v", len(rs.Rows), rs.Rows)
	}
}

func TestNaiveOptimizerSameAnswers(t *testing.T) {
	q := `SELECT ?x ?y WHERE { ?x <industry> "Software" . ?x <employees> ?y }`
	s1 := fig1(t, Options{})
	s2 := fig1(t, Options{DisableHybridOptimizer: true})
	r1 := s1.MustQuery(q)
	r2 := s2.MustQuery(q)
	if len(r1.Rows) != len(r2.Rows) || len(r1.Rows) != 2 {
		t.Fatalf("naive and hybrid disagree: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
}

func TestSpilledStoreStillCorrect(t *testing.T) {
	// A tiny K forces spills; queries must still answer correctly
	// (merges disabled by the spill predicate set).
	s := fig1(t, Options{K: 2, KReverse: 2})
	if s.Internal().Snapshot().SpillCount(false) == 0 {
		t.Fatal("expected spills with K=2")
	}
	rs := s.MustQuery(`SELECT ?x WHERE { ?x <born> ?b . ?x <founder> ?c . ?x <died> ?d }`)
	if got := bindings(rs, "x"); len(got) != 1 || got[0] != "Charles_Flint" {
		t.Fatalf("star query over spilled store = %v", got)
	}
	rs = s.MustQuery(`SELECT ?i WHERE { <IBM> <industry> ?i }`)
	if len(rs.Rows) != 3 {
		t.Fatalf("IBM industries over spilled store = %v", rs.Rows)
	}
}

func TestExplainArtifacts(t *testing.T) {
	s := fig1(t, Options{})
	ex, err := s.Explain(`SELECT ?x WHERE { ?x <industry> "Software" . ?x <employees> ?e }`)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]string{"flow": ex.Flow, "tree": ex.Tree, "plan": ex.Plan, "sql": ex.SQL} {
		if v == "" {
			t.Errorf("Explain %s empty", name)
		}
	}
	if !strings.Contains(ex.SQL, "WITH") {
		t.Errorf("SQL should use CTEs:\n%s", ex.SQL)
	}
}

// TestAnalyzeCompilesOnce: EXPLAIN ANALYZE compiles the query once and
// explains the plan it ran, so the SQL it reports reads the closure's
// stable relation name.
func TestAnalyzeCompilesOnce(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	if err := s.LoadTriples([]rdf.Triple{
		rdf.NewTriple(iri("a"), iri("knows"), iri("b")),
		rdf.NewTriple(iri("b"), iri("knows"), iri("c")),
	}); err != nil {
		t.Fatal(err)
	}
	an, err := s.Analyze(`SELECT ?y WHERE { <a> <knows>+ ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Results.Rows) != 2 {
		t.Fatalf("a knows+ ?y: %v", an.Results.Rows)
	}
	want := sparql.Closure{Steps: []sparql.PathStep{{IRI: "knows"}}, Min: 1, Max: -1}.Relation()
	if !strings.Contains(an.Explanation.SQL, want) {
		t.Fatalf("explanation SQL does not read %s:\n%s", want, an.Explanation.SQL)
	}
}

func TestEmptyPattern(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`ASK { }`)
	if !rs.Ask {
		t.Fatal("ASK {} must be true")
	}
}

func TestSharedVariableJoinAcrossStars(t *testing.T) {
	s := fig1(t, Options{})
	// Chain: person founded company; something developed by company.
	rs := s.MustQuery(`SELECT ?person ?product WHERE {
	  ?person <founder> ?co .
	  ?product <developer> ?co
	}`)
	if got := bindings(rs, "product"); len(got) != 1 || got[0] != "Android" {
		t.Fatalf("chain query = %v (rows %v)", got, rs.Rows)
	}
}

func TestConstSubjectConstObject(t *testing.T) {
	s := fig1(t, Options{})
	rs := s.MustQuery(`SELECT ?x WHERE { <Larry_Page> <founder> <Google> . <Larry_Page> <home> ?x }`)
	if got := bindings(rs, "x"); len(got) != 1 || got[0] != "Palo Alto" {
		t.Fatalf("got %v", got)
	}
}
