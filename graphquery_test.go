package db2rdf_test

import (
	"sort"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
)

func graphStore(t *testing.T) *db2rdf.Store {
	t.Helper()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	mk := func(s0, p string, o rdf.Term) rdf.Triple {
		return rdf.NewTriple(iri("http://g/"+s0), iri("http://g/"+p), o)
	}
	triples := []rdf.Triple{
		mk("alice", "knows", iri("http://g/bob")),
		mk("bob", "knows", iri("http://g/carol")),
		mk("alice", "age", rdf.NewInteger(30)),
		mk("bob", "age", rdf.NewInteger(25)),
	}
	if err := s.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConstruct(t *testing.T) {
	s := graphStore(t)
	ts, err := s.QueryGraph(`PREFIX g: <http://g/>
		CONSTRUCT { ?b g:knownBy ?a } WHERE { ?a g:knows ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("want 2 constructed triples, got %v", ts)
	}
	for _, tr := range ts {
		if tr.P.Value != "http://g/knownBy" {
			t.Fatalf("template predicate wrong: %v", tr)
		}
	}
}

func TestConstructSkipsInvalidInstantiations(t *testing.T) {
	s := graphStore(t)
	// ?v is a literal for age rows: literal subjects must be skipped.
	ts, err := s.QueryGraph(`PREFIX g: <http://g/>
		CONSTRUCT { ?v g:of ?x } WHERE { ?x g:age ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 0 {
		t.Fatalf("literal subjects must be skipped, got %v", ts)
	}
}

func TestConstructConstantTemplate(t *testing.T) {
	s := graphStore(t)
	ts, err := s.QueryGraph(`PREFIX g: <http://g/>
		CONSTRUCT { g:alice g:connected ?b } WHERE { g:alice g:knows ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].O.Value != "http://g/bob" {
		t.Fatalf("got %v", ts)
	}
}

func TestDescribeConstant(t *testing.T) {
	s := graphStore(t)
	ts, err := s.QueryGraph(`DESCRIBE <http://g/bob>`)
	if err != nil {
		t.Fatal(err)
	}
	// bob: knows carol, age 25, known by alice = 3 triples.
	if len(ts) != 3 {
		t.Fatalf("want 3 triples about bob, got %d: %v", len(ts), ts)
	}
}

func TestDescribeVariable(t *testing.T) {
	s := graphStore(t)
	ts, err := s.QueryGraph(`PREFIX g: <http://g/>
		DESCRIBE ?x WHERE { g:alice g:knows ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("describe ?x=bob: want 3 triples, got %d", len(ts))
	}
}

// TestDescribePropertyPath: a DESCRIBE whose WHERE clause uses a
// property path materializes the closure like any other query form.
func TestDescribePropertyPath(t *testing.T) {
	s := graphStore(t)
	ts, err := s.QueryGraph(`PREFIX g: <http://g/>
		DESCRIBE ?x WHERE { ?x g:knows+ g:carol }`)
	if err != nil {
		t.Fatal(err)
	}
	// ?x is alice (via bob) and bob.
	g := func(s string) rdf.Term { return rdf.NewIRI("http://g/" + s) }
	want := []rdf.Triple{
		rdf.NewTriple(g("alice"), g("knows"), g("bob")),
		rdf.NewTriple(g("alice"), g("age"), rdf.NewInteger(30)),
		rdf.NewTriple(g("bob"), g("knows"), g("carol")),
		rdf.NewTriple(g("bob"), g("age"), rdf.NewInteger(25)),
	}
	if got, w := sortedLines(ts), sortedLines(want); got != w {
		t.Fatalf("describe ?x knows+ carol:\n%s\nwant:\n%s", got, w)
	}
}

// sortedLines renders triples as sorted N-Triples lines.
func sortedLines(ts []rdf.Triple) string {
	lines := make([]string, len(ts))
	for i, tr := range ts {
		lines[i] = tr.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestQueryGraphRejectsSelect(t *testing.T) {
	s := graphStore(t)
	if _, err := s.QueryGraph(`SELECT ?x WHERE { ?x ?p ?o }`); err == nil {
		t.Fatal("SELECT through QueryGraph must error")
	}
}

func TestExportRoundTrip(t *testing.T) {
	s := graphStore(t)
	var sb strings.Builder
	n, err := s.Export(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("exported %d triples, want 4", n)
	}
	// Reload into a fresh store and compare.
	s2, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s2.LoadReader(strings.NewReader(sb.String()))
	if err != nil || m != 4 {
		t.Fatalf("reload: %d, %v", m, err)
	}
	var a, b strings.Builder
	s.Export(&a)
	s2.Export(&b)
	al := strings.Split(strings.TrimSpace(a.String()), "\n")
	bl := strings.Split(strings.TrimSpace(b.String()), "\n")
	sort.Strings(al)
	sort.Strings(bl)
	if strings.Join(al, "\n") != strings.Join(bl, "\n") {
		t.Fatalf("round trip mismatch:\n%s\n--\n%s", a.String(), b.String())
	}
}

func TestConstructRejectsPathsInTemplate(t *testing.T) {
	s := graphStore(t)
	_, err := s.QueryGraph(`PREFIX g: <http://g/>
		CONSTRUCT { ?a g:x/g:y ?b } WHERE { ?a g:knows ?b }`)
	if err == nil {
		t.Fatal("paths in CONSTRUCT template must be rejected")
	}
}
