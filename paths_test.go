package db2rdf_test

import (
	"sort"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// pathStore builds a small org chart plus a type hierarchy:
//
//	alice -manages-> bob -manages-> carol -manages-> dave
//	alice -knows-> eve
//	Poodle subClassOf Dog subClassOf Animal; rex a Poodle
func pathStore(t *testing.T) *db2rdf.Store {
	t.Helper()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	mk := func(s0, p, o string) rdf.Triple {
		return rdf.NewTriple(iri("http://x/"+s0), iri("http://x/"+p), iri("http://x/"+o))
	}
	triples := []rdf.Triple{
		mk("alice", "manages", "bob"),
		mk("bob", "manages", "carol"),
		mk("carol", "manages", "dave"),
		mk("alice", "knows", "eve"),
		mk("eve", "email", "eve_at_example"),
		{S: iri("http://x/Poodle"), P: iri("http://x/subClassOf"), O: iri("http://x/Dog")},
		{S: iri("http://x/Dog"), P: iri("http://x/subClassOf"), O: iri("http://x/Animal")},
		{S: iri("http://x/rex"), P: iri(rdf.RDFType), O: iri("http://x/Poodle")},
	}
	if err := s.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	return s
}

func values(t *testing.T, s *db2rdf.Store, q, v string) []string {
	t.Helper()
	res, err := s.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	idx := -1
	for i, name := range res.Vars {
		if name == v {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("var %s not in %v", v, res.Vars)
	}
	var out []string
	for _, row := range res.Rows {
		if row[idx].Bound {
			out = append(out, strings.TrimPrefix(row[idx].Term.Value, "http://x/"))
		}
	}
	sort.Strings(out)
	return out
}

func TestPathSequence(t *testing.T) {
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> SELECT ?w WHERE { x:alice x:manages/x:manages ?w }`, "w")
	if strings.Join(got, ",") != "carol" {
		t.Fatalf("manages/manages = %v", got)
	}
	got = values(t, s, `PREFIX x: <http://x/> SELECT ?e WHERE { x:alice x:knows/x:email ?e }`, "e")
	if strings.Join(got, ",") != "eve_at_example" {
		t.Fatalf("knows/email = %v", got)
	}
}

func TestPathAlternative(t *testing.T) {
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> SELECT ?w WHERE { x:alice x:manages|x:knows ?w }`, "w")
	if strings.Join(got, ",") != "bob,eve" {
		t.Fatalf("manages|knows = %v", got)
	}
}

func TestPathInverse(t *testing.T) {
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> SELECT ?boss WHERE { x:carol ^x:manages ?boss }`, "boss")
	if strings.Join(got, ",") != "bob" {
		t.Fatalf("^manages = %v", got)
	}
	// Inverse distributes over sequences.
	got = values(t, s, `PREFIX x: <http://x/> SELECT ?b WHERE { x:dave ^(x:manages/x:manages) ?b }`, "b")
	if strings.Join(got, ",") != "bob" {
		t.Fatalf("^(manages/manages) = %v", got)
	}
}

func TestPathPlus(t *testing.T) {
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> SELECT ?r WHERE { x:alice x:manages+ ?r }`, "r")
	if strings.Join(got, ",") != "bob,carol,dave" {
		t.Fatalf("manages+ = %v", got)
	}
	// And from a variable subject: all management pairs.
	res, err := s.Query(`PREFIX x: <http://x/> SELECT ?a ?b WHERE { ?a x:manages+ ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3+2+1 pairs in a 4-chain
		t.Fatalf("manages+ pairs = %d, want 6", len(res.Rows))
	}
}

func TestPathStar(t *testing.T) {
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> SELECT ?r WHERE { x:alice x:manages* ?r }`, "r")
	// Includes alice herself (zero-length).
	if strings.Join(got, ",") != "alice,bob,carol,dave" {
		t.Fatalf("manages* = %v", got)
	}
}

func TestPathZeroOrOne(t *testing.T) {
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> SELECT ?r WHERE { x:alice x:manages? ?r }`, "r")
	if strings.Join(got, ",") != "alice,bob" {
		t.Fatalf("manages? = %v", got)
	}
}

func TestPathTypeHierarchy(t *testing.T) {
	// The classic inference-via-path query: instances of Animal through
	// rdf:type/subClassOf*.
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?i WHERE { ?i rdf:type/x:subClassOf* x:Animal }`, "i")
	if strings.Join(got, ",") != "rex" {
		t.Fatalf("type/subClassOf* = %v", got)
	}
}

func TestPathClosureOverAlternative(t *testing.T) {
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> SELECT ?r WHERE { x:alice (x:manages|x:knows)+ ?r }`, "r")
	if strings.Join(got, ",") != "bob,carol,dave,eve" {
		t.Fatalf("(manages|knows)+ = %v", got)
	}
}

func TestPathInChainWithPattern(t *testing.T) {
	// Closure combined with an ordinary triple pattern.
	s := pathStore(t)
	got := values(t, s, `PREFIX x: <http://x/> SELECT ?e WHERE {
		x:alice x:manages+ ?m .
		x:alice x:knows ?k .
		?k x:email ?e }`, "e")
	if len(got) != 3 || got[0] != "eve_at_example" { // one per ?m binding
		t.Fatalf("mixed closure query = %v", got)
	}
}

// TestPathTempTablesCleanedUp: a closure query creates no table in the
// snapshot's database, nor in the live one; its pairs reach the
// executor through an overlay.
func TestPathTempTablesCleanedUp(t *testing.T) {
	s := pathStore(t)
	snap := s.Internal().Snapshot()
	before := strings.Join(snap.DB().TableNames(), ",")
	live := strings.Join(s.Internal().DB.TableNames(), ",")
	for i := 0; i < 2; i++ {
		if _, err := s.Query(`PREFIX x: <http://x/> SELECT ?r WHERE { x:alice x:manages+ ?r }`); err != nil {
			t.Fatal(err)
		}
	}
	if s.Internal().Snapshot() != snap {
		t.Fatal("a query published a snapshot")
	}
	if after := strings.Join(snap.DB().TableNames(), ","); after != before {
		t.Fatalf("snapshot tables changed: %s -> %s", before, after)
	}
	if after := strings.Join(s.Internal().DB.TableNames(), ","); after != live {
		t.Fatalf("live tables changed: %s -> %s", live, after)
	}
}

func TestPathUnsupportedClosureOperand(t *testing.T) {
	s := pathStore(t)
	_, err := s.Query(`PREFIX x: <http://x/> SELECT ?r WHERE { x:alice (x:manages/x:knows)+ ?r }`)
	if err == nil || !strings.Contains(err.Error(), "closure") {
		t.Fatalf("closure over sequence must report a clear error, got %v", err)
	}
}

func TestPathExplainShowsMarkerAccess(t *testing.T) {
	s := pathStore(t)
	ex, err := s.Explain(`PREFIX x: <http://x/> SELECT ?r WHERE { x:alice x:manages+ ?r }`)
	if err != nil {
		t.Fatal(err)
	}
	rel := sparql.Closure{Steps: []sparql.PathStep{{IRI: "http://x/manages"}}, Min: 1, Max: -1}.Relation()
	if !strings.Contains(ex.SQL, rel) {
		t.Fatalf("explain SQL must access the closure relation %s:\n%s", rel, ex.SQL)
	}
}

// TestPathZeroLengthConstantEndpoint: with Min 0 (p*, p?) a constant
// endpoint that is in the dictionary matches itself at length zero,
// at either end of the path, whether or not it touches a p edge; a
// constant that unification folds into the pattern does too.
func TestPathZeroLengthConstantEndpoint(t *testing.T) {
	s := pathStore(t)
	const x = `PREFIX x: <http://x/> `
	for _, tc := range []struct{ q, v, want string }{
		// eve is in the dictionary but on no manages edge.
		{`SELECT ?r WHERE { x:eve x:manages* ?r }`, "r", "eve"},
		{`SELECT ?r WHERE { ?r x:manages* x:eve }`, "r", "eve"},
		{`SELECT ?r WHERE { x:eve x:manages? ?r }`, "r", "eve"},
		{`SELECT ?r WHERE { ?r x:manages? x:eve }`, "r", "eve"},
		{`SELECT ?r WHERE { x:eve x:manages+ ?r }`, "r", ""},
		{`SELECT ?r WHERE { x:eve_at_example x:manages* ?r }`, "r", "eve_at_example"},
		// On the edges: the constant itself plus what it reaches.
		{`SELECT ?r WHERE { x:dave x:manages* ?r }`, "r", "dave"},
		{`SELECT ?r WHERE { ?r x:manages* x:alice }`, "r", "alice"},
		{`SELECT ?r WHERE { ?r x:manages? x:carol }`, "r", "bob,carol"},
		{`SELECT ?r WHERE { ?r x:manages* x:carol }`, "r", "alice,bob,carol"},
		// A filter folded into a constant subject.
		{`SELECT ?r WHERE { ?s x:manages* ?r FILTER(?s = x:eve) }`, "r", "eve"},
		// Both ends constant.
		{`SELECT ?r WHERE { x:eve x:manages* x:eve . x:eve x:email ?r }`, "r", "eve_at_example"},
		{`SELECT ?r WHERE { x:eve x:manages* x:bob . x:eve x:email ?r }`, "r", ""},
	} {
		if got := strings.Join(values(t, s, x+tc.q, tc.v), ","); got != tc.want {
			t.Errorf("%s = [%s], want [%s]", tc.q, got, tc.want)
		}
	}
}
