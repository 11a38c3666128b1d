package sparql

import (
	"strings"
	"testing"

	"db2rdf/internal/rdf"
)

// fig6Query is the paper's running example (Fig. 6a): people that
// founded or are board members of companies in the software industry.
const fig6Query = `
SELECT ?x ?y ?z WHERE {
  ?x <home> "Palo Alto" .
  { ?x <founder> ?y } UNION { ?x <member> ?y }
  { ?y <industry> "Software" .
    ?z <developer> ?y .
    ?y <revenue> ?n .
    OPTIONAL { ?y <employees> ?m } }
}`

func parseOK(t *testing.T, q string) *Query {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("parse: %v\nquery: %s", err, q)
	}
	return parsed
}

func TestParseFig6Structure(t *testing.T) {
	q := parseOK(t, fig6Query)
	if q.Where.Kind != And {
		t.Fatalf("root should be AND, got %v", q.Where.Kind)
	}
	if len(q.Where.Children) != 3 {
		t.Fatalf("root AND should have 3 children, got %d: %s", len(q.Where.Children), q.Where.TreeString())
	}
	if q.Where.Children[1].Kind != Or {
		t.Fatalf("second child should be OR, got %v", q.Where.Children[1].Kind)
	}
	inner := q.Where.Children[2]
	if inner.Kind != And {
		t.Fatalf("third child should be AND group, got %v (%s)", inner.Kind, q.Where.TreeString())
	}
	triples := q.Where.AllTriples()
	if len(triples) != 7 {
		t.Fatalf("want 7 triple patterns, got %d", len(triples))
	}
	// IDs should be 1..7 in document order.
	for i, tp := range triples {
		if tp.ID != i+1 {
			t.Fatalf("triple %d has ID %d", i, tp.ID)
		}
	}
}

func TestLCAAndStructuralRelations(t *testing.T) {
	q := parseOK(t, fig6Query)
	ts := q.Where.AllTriples()
	t1, t2, t3, t4 := ts[0], ts[1], ts[2], ts[3]
	t6, t7 := ts[5], ts[6]

	if !OrConnected(t2, t3) {
		t.Error("t2 and t3 must be OR-connected (Def 3.6)")
	}
	if OrConnected(t1, t2) {
		t.Error("t1 and t2 must not be OR-connected")
	}
	if !OptionalGuarded(t6, t7) {
		t.Error("t7 must be OPTIONAL-guarded wrt t6 (Def 3.7)")
	}
	if OptionalGuarded(t7, t6) {
		t.Error("t6 must not be OPTIONAL-guarded wrt t7")
	}
	lca := TripleLCA(t2, t3)
	if lca == nil || lca.Kind != Or {
		t.Error("LCA(t2,t3) must be the OR node (Def 3.4)")
	}
	lca = TripleLCA(t1, t4)
	if lca == nil || lca.Kind != And {
		t.Error("LCA(t1,t4) must be the root AND")
	}
}

func TestMergeabilityDefinitions(t *testing.T) {
	q := parseOK(t, fig6Query)
	ts := q.Where.AllTriples()
	t2, t3, t4, t5, t6, t7 := ts[1], ts[2], ts[3], ts[4], ts[5], ts[6]

	if !ORMergeable(t2, t3) {
		t.Error("t2,t3 must be ORMergeable (Def 3.10)")
	}
	if ORMergeable(t2, t5) {
		t.Error("t2,t5 must not be ORMergeable")
	}
	if !ANDMergeable(t4, t5) {
		t.Error("t4,t5 must be ANDMergeable (Def 3.9)")
	}
	if ANDMergeable(t2, t4) {
		t.Error("t2,t4 must not be ANDMergeable (t2 under OR)")
	}
	if !OPTMergeable(t6, t7) {
		t.Error("t6,t7 must be OPTMergeable (Def 3.11)")
	}
	if OPTMergeable(t7, t6) {
		t.Error("OPTMergeable is ordered: (t7,t6) must fail")
	}
	if OPTMergeable(t4, t5) {
		t.Error("no OPTIONAL between t4,t5")
	}
}

func TestParsePrefixes(t *testing.T) {
	q := parseOK(t, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?p WHERE { ?p rdf:type foaf:Person . ?p foaf:name ?n }`)
	ts := q.Where.AllTriples()
	if len(ts) != 2 {
		t.Fatalf("want 2 triples, got %d", len(ts))
	}
	if ts[0].P.Term.Value != rdf.RDFType {
		t.Errorf("rdf:type not expanded: %v", ts[0].P.Term)
	}
	if ts[0].O.Term.Value != "http://xmlns.com/foaf/0.1/Person" {
		t.Errorf("foaf:Person not expanded: %v", ts[0].O.Term)
	}
}

func TestParseAKeyword(t *testing.T) {
	q := parseOK(t, `SELECT ?x WHERE { ?x a <http://example.org/C> }`)
	ts := q.Where.AllTriples()
	if ts[0].P.Term.Value != rdf.RDFType {
		t.Errorf("'a' must expand to rdf:type, got %v", ts[0].P.Term)
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	q := parseOK(t, `SELECT * WHERE { ?x <p> ?a ; <q> ?b , ?c . }`)
	ts := q.Where.AllTriples()
	if len(ts) != 3 {
		t.Fatalf("want 3 triples from ;/, lists, got %d", len(ts))
	}
	if !q.Star {
		t.Error("SELECT * must set Star")
	}
	vars := q.ProjectedVars()
	if len(vars) != 4 {
		t.Errorf("want 4 projected vars, got %v", vars)
	}
}

func TestParseLiterals(t *testing.T) {
	q := parseOK(t, `SELECT ?x WHERE {
		?x <p> "plain" .
		?x <q> "tagged"@en .
		?x <r> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
		?x <s> 42 .
		?x <t> 4.5 .
		?x <u> true .
	}`)
	ts := q.Where.AllTriples()
	if ts[0].O.Term.Value != "plain" || ts[0].O.Term.Kind != rdf.Literal {
		t.Errorf("plain literal: %v", ts[0].O.Term)
	}
	if ts[1].O.Term.Lang != "en" {
		t.Errorf("lang literal: %v", ts[1].O.Term)
	}
	if ts[2].O.Term.Datatype != rdf.XSDInteger {
		t.Errorf("typed literal: %v", ts[2].O.Term)
	}
	if ts[3].O.Term.Datatype != rdf.XSDInteger {
		t.Errorf("numeric shorthand: %v", ts[3].O.Term)
	}
	if ts[4].O.Term.Datatype != rdf.XSDDecimal {
		t.Errorf("decimal shorthand: %v", ts[4].O.Term)
	}
	if ts[5].O.Term.Datatype != rdf.XSDBoolean {
		t.Errorf("boolean shorthand: %v", ts[5].O.Term)
	}
}

func TestParseFilter(t *testing.T) {
	q := parseOK(t, `SELECT ?x WHERE { ?x <age> ?a . FILTER (?a >= 18 && ?a < 65) }`)
	fs := q.Where.AllFilters()
	if len(fs) != 1 {
		t.Fatalf("want 1 filter, got %d", len(fs))
	}
	b, ok := fs[0].(*EBin)
	if !ok || b.Op != "&&" {
		t.Fatalf("want && at top, got %#v", fs[0])
	}
	set := map[string]bool{}
	ExprVars(fs[0], set)
	if !set["a"] || len(set) != 1 {
		t.Errorf("filter vars = %v", set)
	}
}

func TestParseFilterBuiltins(t *testing.T) {
	q := parseOK(t, `SELECT ?x WHERE { ?x <name> ?n . OPTIONAL { ?x <nick> ?k } FILTER ( regex(?n, "smith") || bound(?k) ) }`)
	fs := q.Where.AllFilters()
	if len(fs) != 1 {
		t.Fatalf("want 1 filter, got %d", len(fs))
	}
	b := fs[0].(*EBin)
	l, ok := b.L.(*ECall)
	if !ok || l.Name != "regex" || len(l.Args) != 2 {
		t.Fatalf("regex call: %#v", b.L)
	}
	r, ok := b.R.(*ECall)
	if !ok || r.Name != "bound" {
		t.Fatalf("bound call: %#v", b.R)
	}
}

func TestParseOrderLimitOffset(t *testing.T) {
	q := parseOK(t, `SELECT ?x ?a WHERE { ?x <age> ?a } ORDER BY DESC(?a) ?x LIMIT 10 OFFSET 5`)
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Fatalf("order keys: %+v", q.OrderBy)
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Fatalf("limit/offset: %d/%d", q.Limit, q.Offset)
	}
}

func TestParseAsk(t *testing.T) {
	q := parseOK(t, `ASK { <s> <p> <o> }`)
	if !q.Ask {
		t.Fatal("ASK not detected")
	}
	ts := q.Where.AllTriples()
	if len(ts) != 1 || ts[0].S.IsVar {
		t.Fatalf("bad ask triple: %+v", ts)
	}
}

func TestParseNestedUnions(t *testing.T) {
	q := parseOK(t, `SELECT ?x WHERE {
		{ ?x <a> <b> } UNION { ?x <c> <d> } UNION { ?x <e> <f> }
	}`)
	if q.Where.Kind != Or || len(q.Where.Children) != 3 {
		t.Fatalf("chained UNION should flatten to one OR with 3 arms: %s", q.Where.TreeString())
	}
}

func TestParseDistinct(t *testing.T) {
	q := parseOK(t, `SELECT DISTINCT ?x WHERE { ?x <p> ?y }`)
	if !q.Distinct {
		t.Fatal("DISTINCT not detected")
	}
}

func TestParseBlankNodeAsVariable(t *testing.T) {
	q := parseOK(t, `SELECT ?x WHERE { ?x <p> _:b . _:b <q> <v> }`)
	ts := q.Where.AllTriples()
	if !ts[0].O.IsVar || !ts[1].S.IsVar || ts[0].O.Var != ts[1].S.Var {
		t.Fatalf("blank node must act as a shared variable: %+v %+v", ts[0].O, ts[1].S)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT WHERE { ?x <p> ?y }",
		"SELECT ?x { ?x <p> }",
		"SELECT ?x WHERE { ?x <p> ?y ",
		"SELECT ?x WHERE { ?x foo:bar ?y }", // undeclared prefix
		"SELECT ?x WHERE { FILTER } ",
		"CONSTRUCT { ?x <p>/<q> ?y } WHERE { ?x <p> ?y }", // paths in template
		"DESCRIBE",
	}
	for _, qs := range bad {
		if _, err := Parse(qs); err == nil {
			t.Errorf("expected error for %q", qs)
		}
	}
}

func TestTreeString(t *testing.T) {
	q := parseOK(t, fig6Query)
	s := q.Where.TreeString()
	for _, want := range []string{"AND(", "OR(", "OPTIONAL("} {
		if !strings.Contains(s, want) {
			t.Errorf("tree %q missing %q", s, want)
		}
	}
}

func TestVarsHelpers(t *testing.T) {
	q := parseOK(t, fig6Query)
	vars := q.Where.Vars()
	want := []string{"m", "n", "x", "y", "z"}
	if len(vars) != len(want) {
		t.Fatalf("vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("vars = %v, want %v", vars, want)
		}
	}
	ts := q.Where.AllTriples()
	tv := ts[0].Vars()
	if len(tv) != 1 || tv[0] != "x" {
		t.Fatalf("t1 vars = %v", tv)
	}
}

func TestParseComments(t *testing.T) {
	q := parseOK(t, `# leading comment
SELECT ?x WHERE {
  ?x <p> ?y . # trailing comment
}`)
	if len(q.Where.AllTriples()) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestFilterComparisonLessThan(t *testing.T) {
	// '<' must lex as an operator inside FILTER, not an IRI opener.
	q := parseOK(t, `SELECT ?x WHERE { ?x <p> ?v . FILTER (?v < 10) }`)
	fs := q.Where.AllFilters()
	b, ok := fs[0].(*EBin)
	if !ok || b.Op != "<" {
		t.Fatalf("want < comparison, got %#v", fs[0])
	}
}

func TestUnifyEqualityFilters(t *testing.T) {
	q := parseOK(t, `SELECT ?a ?n WHERE { ?a <p> ?b . ?c <name> ?n . FILTER (?b = ?c) }`)
	UnifyEqualityFilters(q)
	if len(q.Where.AllFilters()) != 0 {
		t.Fatalf("filter should be unified away: %v", q.Where.AllFilters())
	}
	ts := q.Where.AllTriples()
	// ?c (or ?b) was substituted so the two triples now share a var.
	shared := false
	for _, v := range ts[0].Vars() {
		for _, w := range ts[1].Vars() {
			if v == w {
				shared = true
			}
		}
	}
	if !shared {
		t.Fatalf("triples should share a variable after unification: %v %v", ts[0], ts[1])
	}
}

func TestUnifySkipsProjectedPairs(t *testing.T) {
	q := parseOK(t, `SELECT ?b ?c WHERE { ?a <p> ?b . ?c <q> ?d . FILTER (?b = ?c) }`)
	UnifyEqualityFilters(q)
	if len(q.Where.AllFilters()) != 1 {
		t.Fatal("both sides projected: unification must not apply")
	}
}

func TestUnifySkipsOptionalBound(t *testing.T) {
	q := parseOK(t, `SELECT ?a WHERE { ?a <p> ?b OPTIONAL { ?a <q> ?c } FILTER (?b = ?c) }`)
	UnifyEqualityFilters(q)
	if len(q.Where.AllFilters()) != 1 {
		t.Fatal("optional-bound variable: unification must not apply")
	}
}

func TestUnifySkipsSelectStar(t *testing.T) {
	q := parseOK(t, `SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . FILTER (?b = ?c) }`)
	UnifyEqualityFilters(q)
	if len(q.Where.AllFilters()) != 1 {
		t.Fatal("SELECT *: unification must not apply")
	}
}

// filterDropQuery is the reproduction of the dropped-FILTER bug: the
// group's filter slice is grown by append (spare capacity), the first
// and third filters unify, and the old in-place rewrite then overwrote
// entries it had not read yet — losing `?a < 3` and keeping a
// degenerate `?c = ?c`.
const filterDropQuery = `SELECT ?s WHERE { ?s <p> ?a . ?s <q> ?b . ?s <r> ?c . ?s <t> ?d . OPTIONAL { ?s <zz> ?z }
	FILTER(?a = ?b) FILTER(?c > 0) FILTER(?c = ?d) FILTER(?a > 5) FILTER(?a < 3) }`

func filterStrings(q *Query) []string {
	var render func(e Expr) string
	render = func(e Expr) string {
		switch x := e.(type) {
		case *EVar:
			return "?" + x.Name
		case *ELit:
			return x.Term.Value
		case *EBin:
			return render(x.L) + " " + x.Op + " " + render(x.R)
		case *EUn:
			return x.Op + render(x.X)
		case *ECall:
			args := make([]string, len(x.Args))
			for i, a := range x.Args {
				args[i] = render(a)
			}
			return x.Name + "(" + strings.Join(args, ", ") + ")"
		}
		return "?"
	}
	var out []string
	for _, f := range q.Where.Filters {
		out = append(out, render(f))
	}
	return out
}

func TestUnifyKeepsEveryOtherFilter(t *testing.T) {
	q := parseOK(t, filterDropQuery)
	if cap(q.Where.Filters) == len(q.Where.Filters) {
		t.Log("the parser left no spare capacity; the hand-built case below still covers it")
	}
	UnifyEqualityFilters(q)
	if got, want := strings.Join(filterStrings(q), " ; "), "?c > 0 ; ?a > 5 ; ?a < 3"; got != want {
		t.Fatalf("filters after unification: %s\nwant: %s", got, want)
	}

	// The same through a hand-built pattern whose filter slice has
	// cap > len, whatever the parser does.
	v := func(n string) Expr { return &EVar{Name: n} }
	bin := func(op string, l, r Expr) Expr { return &EBin{Op: op, L: l, R: r} }
	num := &ELit{Term: rdf.NewInteger(4)}
	root := &Pattern{Kind: Simple}
	for i, po := range [][2]string{{"p", "a"}, {"q", "b"}, {"r", "c"}, {"t", "d"}} {
		root.Triples = append(root.Triples, &TriplePattern{ID: i + 1, S: Variable("s"), P: Constant(rdf.NewIRI(po[0])), O: Variable(po[1]), Parent: root})
	}
	root.Filters = make([]Expr, 0, 16)
	root.Filters = append(root.Filters, bin("=", v("a"), v("b")), bin(">", v("c"), num), bin("=", v("c"), v("d")), bin(">", v("b"), num), bin("<", v("d"), num))
	hand := &Query{Vars: []string{"s"}, Where: root, Limit: -1}
	UnifyEqualityFilters(hand)
	if got, want := strings.Join(filterStrings(hand), " ; "), "?c > 4 ; ?a > 4 ; ?c < 4"; got != want {
		t.Fatalf("hand-built filters after unification: %s\nwant: %s", got, want)
	}
}

// TestUnifyFoldsIRIEquality: an equality with an IRI constant moves
// into the triples under the same conditions as a variable pair; the
// rest of the list stays a filter.
func TestUnifyFoldsIRIEquality(t *testing.T) {
	const star = `?x <type> <A> . ?x ?p ?v`
	for _, tc := range []struct {
		name, query string
		folded      bool
	}{
		{"var = iri", `SELECT ?x WHERE { ` + star + ` . FILTER (?p = <pages>) }`, true},
		{"iri = var", `SELECT ?x WHERE { ` + star + ` . FILTER (<pages> = ?p) }`, true},
		{"sameTerm", `SELECT ?x WHERE { ` + star + ` . FILTER (sameTerm(?p, <pages>)) }`, true},
		{"sameTerm reversed", `SELECT ?x WHERE { ` + star + ` . FILTER (sameTerm(<pages>, ?p)) }`, true},
		{"ask", `ASK { ` + star + ` . FILTER (?p = <pages>) }`, true},
		{"projected", `SELECT ?x ?p WHERE { ` + star + ` . FILTER (?p = <pages>) }`, false},
		{"order by key", `SELECT ?x WHERE { ` + star + ` . FILTER (?p = <pages>) } ORDER BY ?p`, false},
		{"select star", `SELECT * WHERE { ` + star + ` . FILTER (?p = <pages>) }`, false},
		{"not equal", `SELECT ?x WHERE { ` + star + ` . FILTER (?p != <pages>) }`, false},
		{"disjunction", `SELECT ?x WHERE { ` + star + ` . FILTER (?p = <pages> || ?p = <title>) }`, false},
		{"conjunction", `SELECT ?x WHERE { ` + star + ` . FILTER (?p = <pages> && ?p = <title>) }`, false},
		{"plain literal", `SELECT ?x WHERE { ` + star + ` . FILTER (?v = "42") }`, false},
		{"numeric literal", `SELECT ?x WHERE { ` + star + ` . FILTER (?v = 42) }`, false},
		{"bound only in OPTIONAL", `SELECT ?x WHERE { ?x <type> <A> OPTIONAL { ?x ?p ?v } FILTER (?p = <pages>) }`, false},
		{"bound only in UNION", `SELECT ?x WHERE { ?x <type> <A> { ?x ?p ?v } UNION { ?v ?p ?x } FILTER (?p = <pages>) }`, false},
		{"filter in a nested group", `SELECT ?x WHERE { ?x <type> <A> OPTIONAL { ?x ?p ?v FILTER (?p = <pages>) } }`, false},
		{"mentioned by another filter", `SELECT ?x WHERE { ` + star + ` . FILTER (?p = <pages>) FILTER (bound(?p)) }`, false},
		{"mentioned in a nested filter", `SELECT ?x WHERE { ` + star + ` OPTIONAL { ?x <q> ?w FILTER (?w != ?p) } FILTER (?p = <pages>) }`, false},
	} {
		q := parseOK(t, tc.query)
		before := len(q.Where.AllFilters())
		UnifyEqualityFilters(q)
		after := len(q.Where.AllFilters())
		constantPred := false
		for _, tp := range q.Where.AllTriples() {
			if !tp.P.IsVar && tp.P.Term == rdf.NewIRI("pages") {
				constantPred = true
			}
		}
		if tc.folded && (after != before-1 || !constantPred) {
			t.Errorf("%s: the equality should be folded into the triple: %d -> %d filters, triples %v", tc.name, before, after, q.Where.AllTriples())
		}
		if !tc.folded && (after != before || constantPred) {
			t.Errorf("%s: the filter must stay: %d -> %d filters, triples %v", tc.name, before, after, q.Where.AllTriples())
		}
	}

	// Two equalities on one variable: each is mentioned by the other,
	// so both stay (and contradict each other as filters).
	q := parseOK(t, `SELECT ?x WHERE { `+star+` . FILTER (?p = <pages>) FILTER (?p = <title>) }`)
	UnifyEqualityFilters(q)
	if got := len(q.Where.Filters); got != 2 {
		t.Errorf("two equalities on ?p: %d filters left, want 2", got)
	}
	// The folded variable disappears from every position it held.
	q = parseOK(t, `SELECT ?o WHERE { ?s <p> ?o . ?s ?s ?o . FILTER (?s = <a>) }`)
	UnifyEqualityFilters(q)
	for _, tp := range q.Where.AllTriples() {
		for _, v := range tp.Vars() {
			if v == "s" {
				t.Errorf("?s survives in %v", tp)
			}
		}
	}
}
