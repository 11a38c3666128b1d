package db2rdf_test

// Variable-predicate equivalence against the code-free oracle. The
// shapes below cover every way a variable predicate reaches the
// translator's lateral flip (entity unbound, constant or bound
// upstream; predicate repeating another position or shared between
// triples; inside OPTIONAL and UNION) and every way a FILTER on the
// predicate is or is not folded into the pattern. Each is answered by
// the DB2RDF store under several schema, mapping, merging, chunk
// encoding and parallelism settings, before and after a batch of
// deletes, and compared as a multiset with what bruteForce
// (oracle_test.go) finds for the shape's triple patterns, combined and
// filtered here in test code. The triple and vertical baselines, whose
// variable-predicate access is a scan or a union over predicate
// tables, answer the same texts as a second opinion.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/baselines"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
)

// sol is one solution: variable → rendered term.
type sol map[string]string

// tp builds a triple pattern from three positions: "?x" is a variable,
// anything else an IRI.
func tp(id int, s, p, o string) *sparql.TriplePattern {
	pos := func(x string) sparql.TermOrVar {
		if strings.HasPrefix(x, "?") {
			return sparql.Variable(x[1:])
		}
		return sparql.Constant(rdf.NewIRI(x))
	}
	return &sparql.TriplePattern{ID: id, S: pos(s), P: pos(p), O: pos(o)}
}

// bgp evaluates a conjunction of triple patterns with the brute-force
// matcher.
func bgp(data []rdf.Triple, pats ...*sparql.TriplePattern) []sol {
	var vars []string
	seen := map[string]bool{}
	for _, p := range pats {
		for _, v := range p.Vars() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	var out []sol
	for _, row := range bruteForce(data, pats, vars) {
		s := sol{}
		for i, v := range vars {
			s[v] = row[i]
		}
		out = append(out, s)
	}
	return out
}

// leftJoin is SPARQL's OPTIONAL over two solution lists.
func leftJoin(left, right []sol) []sol {
	var out []sol
	for _, l := range left {
		matched := false
	next:
		for _, r := range right {
			for v, x := range r {
				if y, ok := l[v]; ok && y != x {
					continue next
				}
			}
			m := sol{}
			for v, x := range l {
				m[v] = x
			}
			for v, x := range r {
				m[v] = x
			}
			out = append(out, m)
			matched = true
		}
		if !matched {
			out = append(out, l)
		}
	}
	return out
}

func filterSols(in []sol, keep func(sol) bool) []sol {
	var out []sol
	for _, s := range in {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func projectSols(in []sol, vars ...string) [][]string {
	out := make([][]string, len(in))
	for i, s := range in {
		out[i] = make([]string, len(vars))
		for j, v := range vars {
			out[i][j] = s[v] // "" when unbound
		}
	}
	return out
}

// varPredShape is one query with the oracle's way to answer it.
type varPredShape struct {
	name, query string
	want        func(data []rdf.Triple) [][]string
}

func varPredShapes() []varPredShape {
	spo := tp(1, "?s", "?p", "?o")
	isP1 := func(s sol) bool { return s["p"] == "<p1>" }
	return []varPredShape{
		{"all triples", `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, spo), "s", "p", "o")
		}},
		{"constant subject", `SELECT ?p ?o WHERE { <s0> ?p ?o }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "s0", "?p", "?o")), "p", "o")
		}},
		{"constant object", `SELECT ?s ?p WHERE { ?s ?p <o0> }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "?s", "?p", "o0")), "s", "p")
		}},
		{"subject repeats as object", `SELECT ?s ?p WHERE { ?s ?p ?s }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "?s", "?p", "?s")), "s", "p")
		}},
		{"subject repeats as predicate", `SELECT ?s ?o WHERE { ?s ?s ?o }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "?s", "?s", "?o")), "s", "o")
		}},
		{"predicate repeats as object", `SELECT ?s ?p WHERE { ?s ?p ?p }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "?s", "?p", "?p")), "s", "p")
		}},
		{"entity bound by a star, forward", `SELECT ?x ?p ?o WHERE { ?x <p0> ?y . ?x ?p ?o }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "?x", "p0", "?y"), tp(2, "?x", "?p", "?o")), "x", "p", "o")
		}},
		{"entity bound by a star, backward", `SELECT ?x ?p ?s WHERE { ?x <p0> ?y . ?s ?p ?x }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "?x", "p0", "?y"), tp(2, "?s", "?p", "?x")), "x", "p", "s")
		}},
		{"two triples share the predicate", `SELECT ?a ?p ?c WHERE { ?a ?p ?b . ?c ?p ?b }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "?a", "?p", "?b"), tp(2, "?c", "?p", "?b")), "a", "p", "c")
		}},
		{"two predicates, one value", `SELECT ?a ?p ?q ?v WHERE { ?a ?p ?v . ?a ?q ?v }`, func(d []rdf.Triple) [][]string {
			return projectSols(bgp(d, tp(1, "?a", "?p", "?v"), tp(2, "?a", "?q", "?v")), "a", "p", "q", "v")
		}},
		{"inside OPTIONAL", `SELECT ?x ?y ?p ?o WHERE { ?x <p1> ?y OPTIONAL { ?y ?p ?o } }`, func(d []rdf.Triple) [][]string {
			return projectSols(leftJoin(bgp(d, tp(1, "?x", "p1", "?y")), bgp(d, tp(2, "?y", "?p", "?o"))), "x", "y", "p", "o")
		}},
		{"inside UNION (SQ9)", `SELECT ?x ?p WHERE { { ?x <p0> ?y . ?s ?p ?x } UNION { ?x <p0> ?y . ?x ?p ?o } }`, func(d []rdf.Triple) [][]string {
			in := bgp(d, tp(1, "?x", "p0", "?y"), tp(2, "?s", "?p", "?x"))
			return projectSols(append(in, bgp(d, tp(3, "?x", "p0", "?y"), tp(4, "?x", "?p", "?o"))...), "x", "p")
		}},
		{"filter folded (SQ3)", `SELECT ?x WHERE { ?x <p0> ?y . ?x ?p ?v . FILTER (?p = <p1>) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, tp(1, "?x", "p0", "?y"), tp(2, "?x", "?p", "?v")), isP1), "x")
		}},
		{"filter, ?p unprojected", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (?p = <p1>) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), isP1), "s", "o")
		}},
		{"filter, ?p projected", `SELECT ?s ?p ?o WHERE { ?s ?p ?o . FILTER (?p = <p1>) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), isP1), "s", "p", "o")
		}},
		{"filter, ORDER BY ?p", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (?p = <p1>) } ORDER BY ?p`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), isP1), "s", "o")
		}},
		{"filter, SELECT *", `SELECT * WHERE { ?s ?p ?o . FILTER (?p = <p1>) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), isP1), "o", "p", "s")
		}},
		{"filter, operands reversed", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (<p1> = ?p) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), isP1), "s", "o")
		}},
		{"filter, sameTerm", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (sameTerm(?p, <p1>)) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), isP1), "s", "o")
		}},
		{"filter, !=", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (?p != <p1>) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), func(s sol) bool { return !isP1(s) }), "s", "o")
		}},
		{"filter, || of two equalities", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (?p = <p1> || ?p = <p2>) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), func(s sol) bool { return isP1(s) || s["p"] == "<p2>" }), "s", "o")
		}},
		{"filter, contradictory &&", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (?p = <p1> && ?p = <p2>) }`, func([]rdf.Triple) [][]string {
			return nil
		}},
		{"filter, two contradictory filters", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (?p = <p1>) FILTER (?p = <p2>) }`, func([]rdf.Triple) [][]string {
			return nil
		}},
		{"filter, IRI absent from the dictionary", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER (?p = <nowhere>) }`, func([]rdf.Triple) [][]string {
			return nil
		}},
		{"filter, literal constant compares by value", `SELECT ?s ?p WHERE { ?s ?p ?o . FILTER (?o = 7) }`, func(d []rdf.Triple) [][]string {
			return projectSols(filterSols(bgp(d, spo), func(s sol) bool { return strings.HasPrefix(s["o"], `"7"^^`) || strings.HasPrefix(s["o"], `"7.0"^^`) }), "s", "p")
		}},
		{"filter, ?p bound only in OPTIONAL", `SELECT ?x ?o WHERE { ?x <p1> ?y OPTIONAL { ?y ?p ?o } FILTER (?p = <p0>) }`, func(d []rdf.Triple) [][]string {
			rows := leftJoin(bgp(d, tp(1, "?x", "p1", "?y")), bgp(d, tp(2, "?y", "?p", "?o")))
			return projectSols(filterSols(rows, func(s sol) bool { return s["p"] == "<p0>" }), "x", "o")
		}},
	}
}

// varPredDataset is randomDataset plus the triples the shapes need to
// be non-trivial: multi-valued predicates in both directions, terms
// that occur in two positions of one triple, objects that are subjects
// elsewhere, and numeric literals equal by value but not by term.
func varPredDataset(r *rand.Rand) []rdf.Triple {
	iri := rdf.NewIRI
	out := randomDataset(r)
	seen := map[rdf.Triple]bool{}
	for _, t := range out {
		seen[t] = true
	}
	for _, t := range []rdf.Triple{
		rdf.NewTriple(iri("s0"), iri("p0"), iri("o0")),
		rdf.NewTriple(iri("s0"), iri("p0"), iri("o1")),
		rdf.NewTriple(iri("s0"), iri("p0"), iri("o2")),
		rdf.NewTriple(iri("s1"), iri("p1"), iri("o0")),
		rdf.NewTriple(iri("s2"), iri("p1"), iri("o0")),
		rdf.NewTriple(iri("s3"), iri("p1"), iri("o0")),
		rdf.NewTriple(iri("s1"), iri("p2"), iri("s1")),
		rdf.NewTriple(iri("p3"), iri("p3"), iri("o1")),
		rdf.NewTriple(iri("s2"), iri("p2"), iri("p2")),
		rdf.NewTriple(iri("s4"), iri("p1"), iri("s0")),
		rdf.NewTriple(iri("s4"), iri("p0"), iri("s1")),
		rdf.NewTriple(iri("s0"), iri("p4"), rdf.NewInteger(7)),
		rdf.NewTriple(iri("s1"), iri("p4"), rdf.NewTypedLiteral("7.0", rdf.XSDDecimal)),
		rdf.NewTriple(iri("s1"), iri("p4"), rdf.NewInteger(8)),
	} {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func renderBaseline(res *baselines.Results) [][]string {
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = make([]string, len(row))
		for j, term := range row {
			if res.Bound[i][j] {
				out[i][j] = term.String()
			}
		}
	}
	return out
}

func renderStore(res *db2rdf.Results) [][]string {
	out := renderResults(res)
	for _, row := range out {
		for j, cell := range row {
			if cell == "UNBOUND" {
				row[j] = ""
			}
		}
	}
	return out
}

func sameCanonical(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestVariablePredicateShapes(t *testing.T) {
	defer rel.SetParallelism(0, 0)
	shapes := varPredShapes()
	type config struct {
		name      string
		k         int
		colored   bool
		noMerging bool
	}
	configs := []config{
		{name: "K=32", k: 32},
		{name: "K=2 (spills)", k: 2},
		{name: "K=4 colored", k: 4, colored: true},
		{name: "K=32 no merging", k: 32, noMerging: true},
		{name: "K=2 colored no merging", k: 2, colored: true, noMerging: true},
	}
	nonEmpty := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := varPredDataset(r)
		// The delete batch: a random third of the data.
		var doomed, rest []rdf.Triple
		for _, tr := range data {
			if r.Intn(3) == 0 {
				doomed = append(doomed, tr)
			} else {
				rest = append(rest, tr)
			}
		}

		stores := make([]*db2rdf.Store, len(configs))
		for i, c := range configs {
			opts := db2rdf.Options{K: c.k, DisableMerging: c.noMerging}
			if c.colored {
				opts.Mapping, opts.ReverseMapping = db2rdf.ColorTriples(data, c.k, c.k)
			}
			s, err := db2rdf.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LoadTriples(data); err != nil {
				t.Fatal(err)
			}
			stores[i] = s
		}

		for phase, live := range [][]rdf.Triple{data, rest} {
			if phase == 1 {
				for i, s := range stores {
					n, err := s.DeleteTriples(doomed)
					if err != nil || n != len(doomed) {
						t.Fatalf("seed %d, %s: deleted %d of %d triples: %v", seed, configs[i].name, n, len(doomed), err)
					}
				}
			}
			triple, err := baselines.NewTripleStore(baselines.TripleOptions{})
			if err != nil {
				t.Fatal(err)
			}
			vertical, err := baselines.NewVerticalStore(baselines.VerticalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := triple.LoadTriples(live); err != nil {
				t.Fatal(err)
			}
			if err := vertical.LoadTriples(live); err != nil {
				t.Fatal(err)
			}
			for _, shape := range shapes {
				want := canonical(shape.want(live))
				if len(want) > 0 {
					nonEmpty[shape.name] = true
				}
				where := fmt.Sprintf("seed %d, phase %d, %s", seed, phase, shape.name)
				tres, err := triple.Query(shape.query)
				if err != nil {
					t.Fatalf("%s: triple baseline: %v", where, err)
				}
				if got := canonical(renderBaseline(tres)); !sameCanonical(got, want) {
					t.Fatalf("%s: the triple baseline and the oracle disagree:\n got %v\nwant %v", where, got, want)
				}
				vres, err := vertical.Query(shape.query)
				if err != nil {
					t.Fatalf("%s: vertical baseline: %v", where, err)
				}
				if got := canonical(renderBaseline(vres)); !sameCanonical(got, want) {
					t.Fatalf("%s: the vertical baseline and the oracle disagree:\n got %v\nwant %v", where, got, want)
				}
				for i, s := range stores {
					for _, workers := range []int{1, 4} {
						rel.SetParallelism(workers, 1)
						res, err := s.Query(shape.query)
						if err != nil {
							t.Fatalf("%s, %s, workers=%d: %v\n%s", where, configs[i].name, workers, err, shape.query)
						}
						if got := canonical(renderStore(res)); !sameCanonical(got, want) {
							t.Fatalf("%s, %s, workers=%d:\n got %v\nwant %v\n%s", where, configs[i].name, workers, got, want, shape.query)
						}
					}
				}
			}
		}
	}
	for _, shape := range shapes {
		if !nonEmpty[shape.name] && !strings.Contains(shape.name, "contradictory") && !strings.Contains(shape.name, "absent") {
			t.Errorf("%s: empty on every dataset; the shape tests nothing", shape.name)
		}
	}
}

// TestVariablePredicateDeletes runs the flip on Update's live
// snapshot: each request first inserts triples — so the writer holds
// private, unsealed chunks beside the sealed ones — and then deletes
// through a variable-predicate WHERE. The store must end up exporting
// exactly what a store rebuilt from the expected triples exports.
func TestVariablePredicateDeletes(t *testing.T) {
	defer rel.SetParallelism(0, 0)
	iri := rdf.NewIRI
	fresh := []rdf.Triple{
		rdf.NewTriple(iri("s0"), iri("p5"), iri("fresh0")),
		rdf.NewTriple(iri("s9"), iri("p1"), iri("fresh1")),
		rdf.NewTriple(iri("s9"), iri("p5"), iri("fresh2")),
	}
	insert := `INSERT DATA { <s0> <p5> <fresh0> . <s9> <p1> <fresh1> . <s9> <p5> <fresh2> } ; `
	for _, tc := range []struct {
		name, update string
		doomed       func(rdf.Triple) bool
	}{
		{"DELETE WHERE, constant subject", insert + `DELETE WHERE { <s0> ?p ?o }`,
			func(tr rdf.Triple) bool { return tr.S == iri("s0") }},
		{"DELETE with a predicate filter", insert + `DELETE { ?s ?p ?o } WHERE { ?s ?p ?o . FILTER (?p = <p1>) }`,
			func(tr rdf.Triple) bool { return tr.P == iri("p1") }},
		{"DELETE through a bound entity", insert + `DELETE { ?x ?p ?o } WHERE { ?x <p5> ?y . ?x ?p ?o }`,
			func(tr rdf.Triple) bool { return tr.S == iri("s0") || tr.S == iri("s9") }},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, k := range []int{2, 32} {
				for _, workers := range []int{1, 4} {
					data := varPredDataset(rand.New(rand.NewSource(seed)))
					var want []rdf.Triple
					deleted := 0
					for _, tr := range append(data, fresh...) {
						if tc.doomed(tr) {
							deleted++
						} else {
							want = append(want, tr)
						}
					}
					s, err := db2rdf.Open(db2rdf.Options{K: k})
					if err != nil {
						t.Fatal(err)
					}
					if err := s.LoadTriples(data); err != nil {
						t.Fatal(err)
					}
					rel.SetParallelism(workers, 1)
					res, err := s.Update(tc.update)
					if err != nil {
						t.Fatalf("%s, seed %d, K=%d: %v", tc.name, seed, k, err)
					}
					if res.Inserted != len(fresh) || res.Deleted != deleted {
						t.Fatalf("%s, seed %d, K=%d, workers=%d: inserted %d, deleted %d; want %d and %d",
							tc.name, seed, k, workers, res.Inserted, res.Deleted, len(fresh), deleted)
					}
					rebuilt, err := db2rdf.Open(db2rdf.Options{K: k})
					if err != nil {
						t.Fatal(err)
					}
					if err := rebuilt.LoadTriples(want); err != nil {
						t.Fatal(err)
					}
					var got, ref bytes.Buffer
					if _, err := s.Export(&got); err != nil {
						t.Fatal(err)
					}
					if _, err := rebuilt.Export(&ref); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), ref.Bytes()) {
						t.Fatalf("%s, seed %d, K=%d, workers=%d: the updated store exports\n%s\na store rebuilt from the expected triples exports\n%s",
							tc.name, seed, k, workers, got.String(), ref.String())
					}
				}
			}
		}
	}
}

// TestUnifyKeepsEveryFilterEndToEnd is the wrong-answer reproduction of
// the FILTER the equality rewrite used to drop: `?a < 3` fails on the
// only candidate row, so nothing may come back.
func TestUnifyKeepsEveryFilterEndToEnd(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var data []rdf.Triple
	for _, pv := range []struct {
		p string
		v int64
	}{{"p", 7}, {"q", 7}, {"r", 9}, {"t", 9}} {
		data = append(data, rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI(pv.p), rdf.NewInteger(pv.v)))
	}
	if err := s.LoadTriples(data); err != nil {
		t.Fatal(err)
	}
	const conjuncts = `?s <p> ?a . ?s <q> ?b . ?s <r> ?c . ?s <t> ?d . OPTIONAL { ?s <zz> ?z } FILTER(?a = ?b) FILTER(?c > 0) FILTER(?c = ?d) FILTER(?a > 5) `
	res, err := s.Query(`SELECT ?s WHERE { ` + conjuncts + `FILTER(?a < 3) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("FILTER(?a < 3) was dropped: %d rows, want 0", len(res.Rows))
	}
	// Without the failing filter the row is there, so the query above
	// is not empty for some other reason.
	res, err = s.Query(`SELECT ?s WHERE { ` + conjuncts + `}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("control query: %d rows, want 1", len(res.Rows))
	}
}
