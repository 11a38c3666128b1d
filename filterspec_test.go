package db2rdf_test

import (
	"slices"
	"strings"
	"testing"

	"db2rdf"
)

// filterSpecData is the store TestFilterSpecForms queries: under <f>
// one term of every effective-boolean-value class, under <l> tagged and
// untagged strings, under <r> strings to match, and under <n> numbers
// whose lexical order is not their numeric order.
const filterSpecData = `
<a> <f> "false"^^<` + xsd + `boolean> .
<b> <f> "true"^^<` + xsd + `boolean> .
<k> <f> "1"^^<` + xsd + `boolean> .
<m> <f> "0"^^<` + xsd + `boolean> .
<c> <f> "" .
<e> <f> "false" .
<i> <f> "abc" .
<d> <f> "0"^^<` + xsd + `integer> .
<h> <f> "0.0"^^<` + xsd + `decimal> .
<j> <f> "NaN"^^<` + xsd + `double> .
<g> <f> <g> .
<l1> <l> "hello"@en .
<l2> <l> "Hi"@en-GB .
<l3> <l> "x"@EN-us .
<l4> <l> "e"@eng .
<l5> <l> "bonjour"@fr .
<l6> <l> "plain" .
<r1> <r> "Hello World" .
<r2> <r> "line one\nLINE two" .
<r3> <r> "a.b" .
<r4> <r> "axb" .
<r5> <r> "abc" .
<r6> <r> "a b" .
<n1> <n> "5"^^<` + xsd + `integer> .
<n2> <n> "2"^^<` + xsd + `integer> .
<n3> <n> "-4"^^<` + xsd + `integer> .
<n4> <n> "3.5"^^<` + xsd + `decimal> .
<n5> <n> "10"^^<` + xsd + `integer> .
`

// TestFilterSpecForms: FILTER forms against answers worked out by hand
// from SPARQL 1.1 §17 — effective boolean values (§17.2.2), where an
// IRI or an unbound variable is an error that neither a FILTER nor its
// negation passes; langMatches as RFC 4647 basic filtering; the regex
// flags s, m, i, q and x (XPath fn:matches), and an unknown flag as an
// error (§17.4.3.14);
// sameTerm, unary minus, and variable-vs-variable ordering of numbers.
func TestFilterSpecForms(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadReader(strings.NewReader(filterSpecData)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ where, want string }{
		// Effective boolean value of a bare variable.
		{`?x <f> ?v FILTER(?v)`, "b,e,i,k"},
		{`?x <f> ?v FILTER(!?v)`, "a,c,d,h,j,m"},
		{`?x <f> ?v FILTER(!?unused)`, ""},
		{`?x <f> ?v OPTIONAL { ?x <none> ?o } FILTER(!?o)`, ""},
		{`?x <f> ?v OPTIONAL { ?x <none> ?o } FILTER(?o || ?v)`, "b,e,i,k"},
		// langMatches: basic filtering, case-insensitive.
		{`?x <l> ?v FILTER(langMatches(lang(?v), "en"))`, "l1,l2,l3"},
		{`?x <l> ?v FILTER(langMatches(lang(?v), "EN"))`, "l1,l2,l3"},
		{`?x <l> ?v FILTER(langMatches(lang(?v), "en-gb"))`, "l2"},
		{`?x <l> ?v FILTER(langMatches(lang(?v), "*"))`, "l1,l2,l3,l4,l5"},
		// regex flags.
		{`?x <r> ?v FILTER(regex(?v, "hello", "i"))`, "r1"},
		{`?x <r> ?v FILTER(regex(?v, "^line two$", "im"))`, "r2"},
		{`?x <r> ?v FILTER(regex(?v, "one.LINE", "s"))`, "r2"},
		{`?x <r> ?v FILTER(regex(?v, "one.LINE"))`, ""},
		{`?x <r> ?v FILTER(regex(?v, ".", "q"))`, "r3"},
		{`?x <r> ?v FILTER(regex(?v, "A.B", "qi"))`, "r3"},
		// x drops whitespace from the pattern, but not inside a class,
		// and does nothing beside q.
		{`?x <r> ?v FILTER(regex(?v, "a b c", "x"))`, "r5"},
		{`?x <r> ?v FILTER(regex(?v, "[ ]", "x"))`, "r1,r2,r6"},
		{`?x <r> ?v FILTER(regex(?v, "a b", "qx"))`, "r6"},
		{`?x <r> ?v FILTER(regex(?v, "a", "z"))`, ""},
		{`?x <r> ?v FILTER(!regex(?v, "a", "z"))`, ""},
		// sameTerm: the same RDF term, not an equal value.
		{`?x <f> ?v FILTER(sameTerm(?v, "false"))`, "e"},
		{`?x <f> ?v FILTER(sameTerm(?v, <g>))`, "g"},
		// Unary minus, and ordering two variables by numeric value.
		{`?x <n> ?v FILTER(-?v < -3)`, "n1,n4,n5"},
		{`?x <n> ?v . <n2> <n> ?w FILTER(?v > ?w)`, "n1,n4,n5"},
		{`?x <n> ?v . <n4> <n> ?w FILTER(?v <= ?w)`, "n2,n3,n4"},
	} {
		if got := subjects(t, s, `SELECT ?x WHERE { `+tc.where+` }`); got != tc.want {
			t.Errorf("%s: {%s}, want {%s}", tc.where, got, tc.want)
		}
	}
}

// TestCompileDoesNotWriteDictionary: a FILTER constant absent from the
// data is looked up, never interned, so a read-only query leaves the
// dictionary as it found it. An id comparison with such a constant
// compares with the no-match id, two constants compare as terms, and a
// value function reads the constant from its term key; the answers are
// worked out by hand from SPARQL 1.1 §17.
func TestCompileDoesNotWriteDictionary(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadReader(strings.NewReader(filterSpecData)); err != nil {
		t.Fatal(err)
	}
	terms, epoch := s.Internal().Dict.Len(), s.Internal().Snapshot().Epoch()
	const all = "l1,l2,l3,l4,l5,l6"
	for _, tc := range []struct{ where, want string }{
		// Term order against an absent plain literal: code points, and
		// numbers before strings.
		{`?x <r> ?v FILTER(?v < "b")`, "r1,r3,r4,r5,r6"},
		{`?x <n> ?v FILTER(?v < "zzz")`, "n1,n2,n3,n4,n5"},
		{`?x <n> ?v FILTER(?v > "zzz")`, ""},
		// Type tests and accessors of absent terms.
		{`?x <l> ?v FILTER(isIRI(<http://nowhere/x>))`, all},
		{`?x <l> ?v FILTER(isLiteral(<http://nowhere/x>))`, ""},
		{`?x <l> ?v FILTER(str(<http://nowhere/x>) = "http://nowhere/x")`, all},
		{`?x <l> ?v FILTER(lang("nowhere"@de) = "de")`, all},
		{`?x <l> ?v FILTER(datatype("7"^^<http://nowhere/t>) = <http://nowhere/t>)`, all},
		// Id equality with an absent constant matches no stored term.
		{`?x <l> ?v FILTER(?v != "nowhere")`, all},
		{`?x <l> ?v FILTER(?v = "nowhere")`, ""},
		{`?x <l> ?v FILTER(sameTerm(?v, "nowhere"))`, ""},
		{`?x <l> ?v FILTER(!sameTerm(<http://nowhere/x>, ?v))`, all},
		// Two absent constants are the same term only if equal.
		{`?x <l> ?v FILTER("nowhere" = "elsewhere")`, ""},
		{`?x <l> ?v FILTER("nowhere" != "elsewhere")`, all},
		{`?x <l> ?v FILTER(sameTerm("nowhere", "nowhere"))`, all},
		{`?x <l> ?v FILTER(sameTerm("nowhere", "nowhere"@en))`, ""},
	} {
		if got := subjects(t, s, `SELECT ?x WHERE { `+tc.where+` }`); got != tc.want {
			t.Errorf("%s: {%s}, want {%s}", tc.where, got, tc.want)
		}
	}
	if got := s.Internal().Dict.Len(); got != terms {
		t.Errorf("queries interned %d terms", got-terms)
	}
	if got := s.Internal().Snapshot().Epoch(); got != epoch {
		t.Errorf("queries moved the epoch from %d to %d", epoch, got)
	}
}

// TestPlainLiteralOrder: a simple literal is a string whatever its
// lexical form, so `<` between two of them and ORDER BY compare code
// points (SPARQL 1.1 §17.3, §15.1): "10" sorts before "9", and "Nan" is
// the string it reads as, not a NaN. Every ordered pair of the four
// passes `<` once.
func TestPlainLiteralOrder(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := `<p1> <s> "Nan" .
<p2> <s> "Bob" .
<p3> <s> "10" .
<p4> <s> "9" .
`
	if _, err := s.LoadReader(strings.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT ?n1 ?n2 WHERE { ?a <s> ?n1 . ?b <s> ?n2 FILTER(?n1 < ?n2) }`)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for _, row := range res.Rows {
		pairs = append(pairs, row[0].Term.Value+"<"+row[1].Term.Value)
	}
	slices.Sort(pairs)
	if got, want := strings.Join(pairs, " "), "10<9 10<Bob 10<Nan 9<Bob 9<Nan Bob<Nan"; got != want {
		t.Errorf("FILTER(?n1 < ?n2): %d pairs {%s}, want 6 {%s}", len(pairs), got, want)
	}
	res, err = s.Query(`SELECT ?n WHERE { ?x <s> ?n } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, row := range res.Rows {
		order = append(order, row[0].Term.Value)
	}
	if got := strings.Join(order, " "); got != "10 9 Bob Nan" {
		t.Errorf("ORDER BY ?n: %s, want 10 9 Bob Nan", got)
	}
}
