package baselines

import (
	"sort"
	"strings"
	"testing"

	"db2rdf/internal/rdf"
)

func sampleTriples() []rdf.Triple {
	iri := rdf.NewIRI
	lit := rdf.NewLiteral
	mk := func(s, p string, o rdf.Term) rdf.Triple {
		return rdf.NewTriple(iri(s), iri(p), o)
	}
	return []rdf.Triple{
		mk("Charles_Flint", "born", lit("1850")),
		mk("Charles_Flint", "died", lit("1934")),
		mk("Charles_Flint", "founder", iri("IBM")),
		mk("Larry_Page", "born", lit("1973")),
		mk("Larry_Page", "founder", iri("Google")),
		mk("Larry_Page", "board", iri("Google")),
		mk("Google", "industry", lit("Software")),
		mk("Google", "industry", lit("Internet")),
		mk("IBM", "industry", lit("Software")),
		mk("IBM", "employees", lit("433,362")),
	}
}

type queryable interface {
	Query(string) (*Results, error)
}

func col(t *testing.T, s queryable, q, v string) []string {
	t.Helper()
	rs, err := s.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	idx := -1
	for i, name := range rs.Vars {
		if name == v {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("var %s missing in %v", v, rs.Vars)
	}
	var out []string
	for r, row := range rs.Rows {
		if rs.Bound[r][idx] {
			out = append(out, row[idx].Value)
		} else {
			out = append(out, "")
		}
	}
	sort.Strings(out)
	return out
}

func newTriple(t *testing.T, opts TripleOptions) *TripleStore {
	t.Helper()
	s, err := NewTripleStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(sampleTriples()); err != nil {
		t.Fatal(err)
	}
	return s
}

func newVertical(t *testing.T, opts VerticalOptions) *VerticalStore {
	t.Helper()
	s, err := NewVerticalStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(sampleTriples()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTripleStoreBasic(t *testing.T) {
	s := newTriple(t, TripleOptions{IndexSubject: true, IndexObject: true})
	got := col(t, s, `SELECT ?x WHERE { ?x <industry> "Software" }`, "x")
	if strings.Join(got, ",") != "Google,IBM" {
		t.Fatalf("got %v", got)
	}
}

func TestTripleStoreStarSelfJoins(t *testing.T) {
	s := newTriple(t, TripleOptions{IndexSubject: true})
	sql, err := s.SQLFor(`SELECT ?x WHERE { ?x <born> ?b . ?x <founder> ?c . ?x <died> ?d }`)
	if err != nil {
		t.Fatal(err)
	}
	// The triple-store translation must access TRIPLES once per
	// pattern (the self-joins of Figure 2(c)).
	if n := strings.Count(sql, "TRIPLES"); n != 3 {
		t.Fatalf("want 3 TRIPLES accesses, got %d:\n%s", n, sql)
	}
	got := col(t, s, `SELECT ?x WHERE { ?x <born> ?b . ?x <founder> ?c . ?x <died> ?d }`, "x")
	if len(got) != 1 || got[0] != "Charles_Flint" {
		t.Fatalf("got %v", got)
	}
}

func TestTripleStoreUnionOptional(t *testing.T) {
	s := newTriple(t, TripleOptions{IndexSubject: true, IndexObject: true})
	got := col(t, s, `SELECT ?x WHERE { { ?x <founder> <Google> } UNION { ?x <board> <Google> } }`, "x")
	if len(got) != 2 {
		t.Fatalf("union results: %v", got)
	}
	rs, err := s.Query(`SELECT ?x ?e WHERE { ?x <industry> "Software" OPTIONAL { ?x <employees> ?e } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("optional rows: %d", len(rs.Rows))
	}
	boundCount := 0
	for i := range rs.Rows {
		if rs.Bound[i][1] {
			boundCount++
		}
	}
	if boundCount != 1 {
		t.Fatalf("exactly IBM has employees; bound=%d", boundCount)
	}
}

func TestTripleStoreVarPredicate(t *testing.T) {
	s := newTriple(t, TripleOptions{IndexSubject: true})
	got := col(t, s, `SELECT ?p WHERE { <Charles_Flint> ?p ?o }`, "p")
	if strings.Join(got, ",") != "born,died,founder" {
		t.Fatalf("got %v", got)
	}
}

// TestTripleStoreFilter: a numeric FILTER compares numbers only. The
// sample's years are simple literals, and comparing a simple literal
// with a number is a type error (SPARQL 1.1 §17.3), so plain "1850"
// does not pass `< 1900`; the same year typed xsd:integer does.
func TestTripleStoreFilter(t *testing.T) {
	s := newTriple(t, TripleOptions{IndexSubject: true})
	if got := col(t, s, `SELECT ?x WHERE { ?x <born> ?b . FILTER (?b < 1900) }`, "x"); len(got) != 0 {
		t.Fatalf("plain literal years: got %v, want none", got)
	}
	typed := rdf.NewTriple(rdf.NewIRI("Ada_Lovelace"), rdf.NewIRI("born"), rdf.NewTypedLiteral("1815", rdf.XSDInteger))
	if err := s.LoadTriples([]rdf.Triple{typed}); err != nil {
		t.Fatal(err)
	}
	got := col(t, s, `SELECT ?x WHERE { ?x <born> ?b . FILTER (?b < 1900) }`, "x")
	if len(got) != 1 || got[0] != "Ada_Lovelace" {
		t.Fatalf("xsd:integer years: got %v, want [Ada_Lovelace]", got)
	}
}

func TestTripleStoreNaiveMode(t *testing.T) {
	s, err := NewTripleStore(TripleOptions{IndexSubject: true, Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(sampleTriples()); err != nil {
		t.Fatal(err)
	}
	got := col(t, s, `SELECT ?x WHERE { ?x <industry> "Software" . ?x <employees> ?e }`, "x")
	if len(got) != 1 || got[0] != "IBM" {
		t.Fatalf("got %v", got)
	}
}

func TestVerticalStoreBasic(t *testing.T) {
	s := newVertical(t, VerticalOptions{})
	got := col(t, s, `SELECT ?x WHERE { ?x <industry> "Software" }`, "x")
	if strings.Join(got, ",") != "Google,IBM" {
		t.Fatalf("got %v", got)
	}
	// One relation per predicate: born, died, founder, board,
	// industry, employees.
	if s.TableCount() != 6 {
		t.Fatalf("table count = %d, want 6", s.TableCount())
	}
}

func TestVerticalStoreStar(t *testing.T) {
	s := newVertical(t, VerticalOptions{})
	sql, err := s.SQLFor(`SELECT ?x WHERE { ?x <born> ?b . ?x <founder> ?c . ?x <died> ?d }`)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2(d): one COL_ relation per star member.
	if n := strings.Count(sql, "COL_"); n != 3 {
		t.Fatalf("want 3 COL_ accesses, got %d:\n%s", n, sql)
	}
	got := col(t, s, `SELECT ?x WHERE { ?x <born> ?b . ?x <founder> ?c . ?x <died> ?d }`, "x")
	if len(got) != 1 || got[0] != "Charles_Flint" {
		t.Fatalf("got %v", got)
	}
}

func TestVerticalStoreUnknownPredicate(t *testing.T) {
	s := newVertical(t, VerticalOptions{})
	rs, err := s.Query(`SELECT ?x WHERE { ?x <nosuchpred> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("unknown predicate must yield empty result, got %v", rs.Rows)
	}
}

func TestVerticalStoreVarPredicateUnion(t *testing.T) {
	s := newVertical(t, VerticalOptions{})
	got := col(t, s, `SELECT ?p WHERE { <Charles_Flint> ?p ?o }`, "p")
	if strings.Join(got, ",") != "born,died,founder" {
		t.Fatalf("got %v", got)
	}
	sql, err := s.SQLFor(`SELECT ?p WHERE { <Charles_Flint> ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	// The structural weakness: a variable predicate unions every
	// predicate relation.
	if n := strings.Count(sql, "UNION ALL"); n != s.TableCount()-1 {
		t.Fatalf("want %d UNION ALL arms, got %d", s.TableCount()-1, n)
	}
}

func TestVerticalStoreOptional(t *testing.T) {
	s := newVertical(t, VerticalOptions{})
	rs, err := s.Query(`SELECT ?x ?e WHERE { ?x <industry> "Software" OPTIONAL { ?x <employees> ?e } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("optional rows: %d", len(rs.Rows))
	}
}

func TestBaselinesAgreeWithEachOther(t *testing.T) {
	queries := []string{
		`SELECT ?x WHERE { ?x <industry> "Software" }`,
		`SELECT ?x ?b WHERE { ?x <born> ?b }`,
		`SELECT ?x WHERE { { ?x <founder> <Google> } UNION { ?x <board> <Google> } }`,
		`SELECT ?x WHERE { ?x <born> ?b . ?x <founder> ?c }`,
		`ASK { <IBM> <industry> "Software" }`,
	}
	ts := newTriple(t, TripleOptions{IndexSubject: true, IndexObject: true})
	vs := newVertical(t, VerticalOptions{})
	for _, q := range queries {
		r1, err := ts.Query(q)
		if err != nil {
			t.Fatalf("triple %q: %v", q, err)
		}
		r2, err := vs.Query(q)
		if err != nil {
			t.Fatalf("vertical %q: %v", q, err)
		}
		if r1.IsAsk {
			if r1.Ask != r2.Ask {
				t.Errorf("ASK disagreement on %q", q)
			}
			continue
		}
		if len(r1.Rows) != len(r2.Rows) {
			t.Errorf("row count disagreement on %q: %d vs %d", q, len(r1.Rows), len(r2.Rows))
		}
	}
}

func TestTripleStoreDuplicateInsert(t *testing.T) {
	s, err := NewTripleStore(TripleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o"))
	for i := 0; i < 3; i++ {
		if err := s.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if s.table.Len() != 1 {
		t.Fatalf("want 1 row, got %d", s.table.Len())
	}
}

func TestVerticalStoreLoadNTriples(t *testing.T) {
	s, err := NewVerticalStore(VerticalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Load(strings.NewReader(`<a> <p> <b> .
<a> <q> "x" .
`))
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if s.TableCount() != 2 {
		t.Fatalf("tables = %d", s.TableCount())
	}
}

func TestRepeatedVariablePositions(t *testing.T) {
	// ?a ?a ?b and ?a ?p ?a: repeated variables across positions.
	ts := newTriple(t, TripleOptions{IndexSubject: true})
	vs := newVertical(t, VerticalOptions{})
	for _, q := range []string{
		`SELECT ?a ?b WHERE { ?a ?a ?b }`,
		`SELECT ?a ?p WHERE { ?a ?p ?a }`,
	} {
		r1, err := ts.Query(q)
		if err != nil {
			t.Fatalf("triple %q: %v", q, err)
		}
		r2, err := vs.Query(q)
		if err != nil {
			t.Fatalf("vertical %q: %v", q, err)
		}
		if len(r1.Rows) != 0 || len(r2.Rows) != 0 {
			t.Errorf("%q: no sample triple has repeated positions; got %d/%d rows", q, len(r1.Rows), len(r2.Rows))
		}
	}
}
