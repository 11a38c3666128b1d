package db2rdf_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// hierarchyTriples: GraduateStudent ⊑ Student ⊑ Person; instances at
// each level.
func hierarchyTriples() []rdf.Triple {
	iri := rdf.NewIRI
	sub := iri("http://www.w3.org/2000/01/rdf-schema#subClassOf")
	typ := iri(rdf.RDFType)
	x := func(s string) rdf.Term { return iri("http://h/" + s) }
	return []rdf.Triple{
		{S: x("GraduateStudent"), P: sub, O: x("Student")},
		{S: x("Student"), P: sub, O: x("Person")},
		{S: x("gina"), P: typ, O: x("GraduateStudent")},
		{S: x("sam"), P: typ, O: x("Student")},
		{S: x("pat"), P: typ, O: x("Person")},
		{S: x("gina"), P: x("name"), O: rdf.NewLiteral("Gina")},
	}
}

func loadInference(t *testing.T, inference bool) *db2rdf.Store {
	t.Helper()
	s, err := db2rdf.Open(db2rdf.Options{Inference: inference})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(hierarchyTriples()); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(res *db2rdf.Results) []string {
	var out []string
	for _, row := range res.Rows {
		out = append(out, strings.TrimPrefix(row[0].Term.Value, "http://h/"))
	}
	return out
}

func TestInferenceSubclassQuery(t *testing.T) {
	plain := loadInference(t, false)
	inf := loadInference(t, true)
	q := `PREFIX h: <http://h/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?x WHERE { ?x rdf:type h:Person }`
	// Without inference: only the directly declared Person.
	r, err := plain.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("plain store: want 1 direct Person, got %v", names(r))
	}
	// With inference: the whole hierarchy answers.
	r, err = inf.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("inference: want 3 Persons, got %v", names(r))
	}
}

func TestInferenceMidHierarchy(t *testing.T) {
	inf := loadInference(t, true)
	r, err := inf.Query(`PREFIX h: <http://h/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?x WHERE { ?x rdf:type h:Student }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 { // gina + sam, not pat
		t.Fatalf("want 2 Students, got %v", names(r))
	}
}

func TestInferenceDirectTypeStillWorks(t *testing.T) {
	inf := loadInference(t, true)
	r, err := inf.Query(`PREFIX h: <http://h/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?x WHERE { ?x rdf:type h:GraduateStudent . ?x h:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || !strings.HasSuffix(r.Rows[0][0].Term.Value, "gina") {
		t.Fatalf("got %v", names(r))
	}
}

// TestInferenceEveryWhereClause: the subclass rewrite applies to the
// WHERE of a DESCRIBE and of an Update exactly as to a SELECT's.
func TestInferenceEveryWhereClause(t *testing.T) {
	const prefixes = `PREFIX h: <http://h/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> `
	inf := loadInference(t, true)
	ts, err := inf.QueryGraph(prefixes + `DESCRIBE ?x WHERE { ?x rdf:type h:Person }`)
	if err != nil {
		t.Fatal(err)
	}
	// gina (type and name), sam and pat (one type each).
	if len(ts) != 4 {
		t.Errorf("describe of every Person: want 4 triples, got %v", ts)
	}
	sel, err := inf.Query(prefixes + `SELECT ?x WHERE { ?x rdf:type h:Person }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inf.Update(prefixes + `INSERT { ?x h:isPerson "y" } WHERE { ?x rdf:type h:Person }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 3 || res.Inserted != len(sel.Rows) {
		t.Fatalf("insert over every Person: inserted %d, SELECT returns %d rows, want 3", res.Inserted, len(sel.Rows))
	}
	// DELETE WHERE's template is its pattern as written: the WHERE
	// matches every Person, but only the declared pat rdf:type h:Person
	// exists to delete; gina's and sam's own type triples stay.
	res, err = inf.Update(prefixes + `DELETE WHERE { ?x rdf:type h:Person }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Errorf("delete where over every Person: deleted %d, want 1", res.Deleted)
	}
	ask, err := inf.Query(prefixes + `ASK { <http://h/gina> rdf:type h:GraduateStudent . <http://h/sam> rdf:type h:Student }`)
	if err != nil {
		t.Fatal(err)
	}
	if !ask.Ask {
		t.Error("delete where over every Person removed gina's or sam's declared type")
	}
	// DELETE/INSERT templates are instantiated as written too: the WHERE
	// matches gina (a GraduateStudent) and sam, the DELETE template
	// removes only sam's declared Student type, and gina keeps hers.
	res, err = inf.Update(prefixes + `DELETE { ?x rdf:type h:Student } INSERT { ?x rdf:type h:Scholar } WHERE { ?x rdf:type h:Student }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || res.Inserted != 2 {
		t.Errorf("delete/insert over every Student: deleted %d, inserted %d, want 1 and 2", res.Deleted, res.Inserted)
	}
	ask, err = inf.Query(prefixes + `ASK { <http://h/gina> rdf:type h:GraduateStudent . <http://h/gina> rdf:type h:Scholar . <http://h/sam> rdf:type h:Scholar }`)
	if err != nil {
		t.Fatal(err)
	}
	if !ask.Ask {
		t.Error("delete/insert over every Student instantiated a rewritten template")
	}
	// One request, three operations with paths: the second one's type
	// pattern adds an inference closure, which must not overwrite the
	// path closure of the third.
	res, err = inf.Update(prefixes + `INSERT { ?x h:tag "a" } WHERE { ?x h:name* ?n . ?x h:name? ?m } ;
		INSERT { ?x h:tag "b" } WHERE { ?x rdf:type h:Person . ?x h:name* ?n } ;
		INSERT { ?x h:tag "c" } WHERE { ?x h:name+ ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	tags, err := inf.Query(prefixes + `SELECT ?x ?t WHERE { ?x h:tag ?t }`)
	if err != nil {
		t.Fatal(err)
	}
	// Only gina is on a name edge (her literal name cannot be a
	// subject), so each operation tags her once.
	if len(tags.Rows) != 3 {
		t.Errorf("three path operations: want 3 tags, got %d: %v", len(tags.Rows), tags.Rows)
	}
}

func TestInferenceVariableClass(t *testing.T) {
	// ?x rdf:type ?c under inference: every (instance, superclass) pair.
	inf := loadInference(t, true)
	r, err := inf.Query(`PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?x ?c WHERE { ?x rdf:type ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	// gina: Grad/Student/Person, sam: Student/Person, pat: Person = 6.
	if len(r.Rows) != 6 {
		t.Fatalf("want 6 (instance, class) pairs, got %d", len(r.Rows))
	}
}

// inferenceOracle answers the conjunctive query text over data by
// brute force. Under inference it first materializes the subClassOf
// closure naively, reflexive on every class (every rdf:type object and
// every subClassOf end), as triples of a fresh predicate, and rewrites
// each pattern s rdf:type C into s rdf:type ?f . ?f <closure> C.
func inferenceOracle(t *testing.T, data []rdf.Triple, text string, inference bool) []string {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	pats := q.Where.AllTriples()
	if !inference {
		return canonical(bruteForce(data, pats, q.Vars))
	}
	const subClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	closure := rdf.NewIRI("urn:oracle:subClassOf*")
	reach := map[[2]rdf.Term]bool{}
	for _, tr := range data {
		switch tr.P.Value {
		case rdf.RDFType:
			reach[[2]rdf.Term{tr.O, tr.O}] = true
		case subClassOf:
			reach[[2]rdf.Term{tr.S, tr.S}] = true
			reach[[2]rdf.Term{tr.O, tr.O}] = true
			reach[[2]rdf.Term{tr.S, tr.O}] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for ab := range reach {
			for bc := range reach {
				if ac := [2]rdf.Term{ab[0], bc[1]}; ab[1] == bc[0] && !reach[ac] {
					reach[ac] = true
					changed = true
				}
			}
		}
	}
	all := append([]rdf.Triple(nil), data...)
	for ab := range reach {
		all = append(all, rdf.NewTriple(ab[0], closure, ab[1]))
	}
	var rewritten []*sparql.TriplePattern
	for i, p := range pats {
		if p.P.IsVar || p.P.Term.Value != rdf.RDFType {
			rewritten = append(rewritten, p)
			continue
		}
		f := sparql.Variable(fmt.Sprintf("oracle_f%d", i))
		rewritten = append(rewritten,
			&sparql.TriplePattern{S: p.S, P: p.P, O: f},
			&sparql.TriplePattern{S: f, P: sparql.Constant(closure), O: p.O})
	}
	return canonical(bruteForce(all, rewritten, q.Vars))
}

// checkInference runs text on a store over data and compares the
// answer with inferenceOracle.
func checkInference(t *testing.T, data []rdf.Triple, text string, inference bool) {
	t.Helper()
	s, err := db2rdf.Open(db2rdf.Options{Inference: inference})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(data); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	got := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = make([]string, len(row))
		for j, b := range row {
			if b.Bound {
				got[i][j] = b.Term.String()
			}
		}
	}
	if g, w := strings.Join(canonical(got), "\n"), strings.Join(inferenceOracle(t, data, text, inference), "\n"); g != w {
		t.Fatalf("inference=%v %s\ngot:\n%s\nwant:\n%s\ndata: %v", inference, text, g, w, data)
	}
}

// TestInferenceKeepsDirectTypes: under inference a declared type
// matches itself even when its class sits on no subClassOf edge, or
// the store holds no subClassOf triple at all.
func TestInferenceKeepsDirectTypes(t *testing.T) {
	const typ = "<" + rdf.RDFType + ">"
	lonely := append(hierarchyTriples(),
		rdf.NewTriple(rdf.NewIRI("http://h/lou"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://h/Lonely")))
	flat := []rdf.Triple{rdf.NewTriple(rdf.NewIRI("a"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("C"))}
	for _, tc := range []struct {
		name string
		data []rdf.Triple
		q    string
		rows int
	}{
		{"class on no subClassOf edge", lonely, `SELECT ?x WHERE { ?x ` + typ + ` <http://h/Lonely> }`, 1},
		{"no subClassOf triples", flat, `SELECT ?x WHERE { ?x ` + typ + ` <C> }`, 1},
		{"variable class", lonely, `SELECT ?x ?c WHERE { ?x ` + typ + ` ?c }`, 7},
		{"variable class, no subClassOf triples", flat, `SELECT ?x ?c WHERE { ?x ` + typ + ` ?c }`, 1},
		{"class on an edge", lonely, `SELECT ?x WHERE { ?x ` + typ + ` <http://h/Student> . ?x <http://h/name> ?n }`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := len(inferenceOracle(t, tc.data, tc.q, true)); n != tc.rows {
				t.Fatalf("oracle: %d rows, want %d", n, tc.rows)
			}
			checkInference(t, tc.data, tc.q, true)
			checkInference(t, tc.data, tc.q, false)
		})
	}
}

// TestInferenceRandomAgainstOracle: random small graphs over rdf:type,
// subClassOf (cycles included) and one plain predicate, queried with
// and without inference.
func TestInferenceRandomAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	preds := []string{rdf.RDFType, rdf.RDFType, "http://www.w3.org/2000/01/rdf-schema#subClassOf", "p"}
	node := func() string { return fmt.Sprintf("n%d", r.Intn(6)) }
	for trial := 0; trial < 60; trial++ {
		var data []rdf.Triple
		seen := map[rdf.Triple]bool{}
		for i := 0; i < 4+r.Intn(20); i++ {
			tr := rdf.NewTriple(rdf.NewIRI(node()), rdf.NewIRI(preds[r.Intn(len(preds))]), rdf.NewIRI(node()))
			if !seen[tr] {
				seen[tr] = true
				data = append(data, tr)
			}
		}
		pos := func() string {
			if r.Intn(2) == 0 {
				return "?" + string(rune('a'+r.Intn(3)))
			}
			return "<" + node() + ">"
		}
		var body strings.Builder
		for i := 0; i < 1+r.Intn(3); i++ {
			fmt.Fprintf(&body, " %s <%s> %s .", pos(), preds[r.Intn(len(preds))], pos())
		}
		q := "SELECT ?a ?b ?c WHERE {" + body.String() + " }"
		checkInference(t, data, q, false)
		checkInference(t, data, q, true)
	}
}
