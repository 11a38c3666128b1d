package db2rdf_test

import (
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
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
