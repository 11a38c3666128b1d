package db2rdf_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rel"
	"db2rdf/internal/translator"
)

// TestTranslatedSQLRoundTrip: the SQL text of a translation is a
// faithful rendering of the bound query that executes. For every query
// the LUBM and SP2B templates, the path, inference and
// variable-predicate tests and the oracle shapes compile,
// rel.ParseQuery of the text equals the translator's query (bound form
// included), and the two execute to the same rows.
func TestTranslatedSQLRoundTrip(t *testing.T) {
	var mu sync.Mutex
	checked := 0
	remove := db2rdf.SetCompileHookForTest(func(tr *translator.Result, exec func(*rel.Query) (*rel.ResultSet, error)) {
		if tr.Query == nil {
			return
		}
		mu.Lock()
		checked++
		mu.Unlock()
		back, err := rel.ParseQuery(tr.SQL)
		if err != nil {
			t.Errorf("the printed SQL does not parse: %v\n%s", err, tr.SQL)
			return
		}
		if !reflect.DeepEqual(back, tr.Query) {
			t.Errorf("the printed SQL parses to a different query:\n%s", tr.SQL)
			return
		}
		want, werr := exec(tr.Query)
		got, gerr := exec(back)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) || werr == nil && !slices.Equal(sortedRows(want), sortedRows(got)) {
			t.Errorf("built and parsed query answer differently (%v, %v):\n%s", werr, gerr, tr.SQL)
		}
	})
	defer remove()

	for _, set := range []struct {
		name    string
		data    *gen.Dataset
		queries []gen.Query
	}{
		{"LUBM", gen.LUBM(1), gen.LUBMQueries()},
		{"SP2B", gen.SP2B(5000), gen.SP2BQueries()},
	} {
		s, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTriples(set.data.Triples); err != nil {
			t.Fatal(err)
		}
		for _, q := range set.queries {
			if _, err := s.Query(q.SPARQL); err != nil {
				t.Fatalf("%s %s: %v", set.name, q.Name, err)
			}
		}
	}
	for _, test := range []func(*testing.T){
		// paths_test.go
		TestPathSequence, TestPathAlternative, TestPathInverse, TestPathPlus, TestPathStar,
		TestPathZeroOrOne, TestPathTypeHierarchy, TestPathClosureOverAlternative,
		TestPathInChainWithPattern, TestPathTempTablesCleanedUp, TestPathUnsupportedClosureOperand,
		TestPathExplainShowsMarkerAccess, TestPathZeroLengthConstantEndpoint,
		// inference_test.go
		TestInferenceSubclassQuery, TestInferenceMidHierarchy, TestInferenceDirectTypeStillWorks,
		TestInferenceEveryWhereClause, TestInferenceVariableClass, TestInferenceKeepsDirectTypes,
		TestInferenceRandomAgainstOracle,
		// varpred_test.go
		TestVariablePredicateShapes, TestVariablePredicateDeletes, TestUnifyKeepsEveryFilterEndToEnd,
		// oracle_test.go
		TestRandomBGPsAgainstBruteForce, TestRandomBGPsNaiveOptimizerAgainstBruteForce,
	} {
		test(t)
	}
	if checked < 1000 {
		t.Fatalf("only %d compiled queries checked", checked)
	}
	t.Logf("%d compiled queries round-trip", checked)
}

func sortedRows(rs *rel.ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		out[i] = fmt.Sprint(row)
	}
	slices.Sort(out)
	return out
}

const xsd = "http://www.w3.org/2001/XMLSchema#"

// numericStore holds <a> <v> 5 and <b> <v> 2000.
func numericStore(t *testing.T, extra string) *db2rdf.Store {
	t.Helper()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := `<a> <v> "5"^^<` + xsd + `integer> .` + "\n" + extra
	if _, err := s.LoadReader(strings.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	return s
}

func subjects(t *testing.T, s *db2rdf.Store, q string) string {
	t.Helper()
	res, err := s.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[0].Term.Value)
	}
	slices.Sort(out)
	return strings.Join(out, ",")
}

// TestFilterNumericLiteralForms: a numeric FILTER constant is compared
// by value whatever its lexical form — exponents, a sign, a leading
// point, more digits than an int64 holds, INF and NaN — and the
// printed SQL of every finite one parses.
func TestFilterNumericLiteralForms(t *testing.T) {
	s := numericStore(t, `<b> <v> "2000"^^<`+xsd+`integer> .`)
	for _, tc := range []struct {
		constant string
		want     int
	}{
		{`1e3`, 1},
		{`-1e3`, 0},
		{`"1e3"^^<` + xsd + `double>`, 1},
		{`"+1000"^^<` + xsd + `integer>`, 1},
		{`".5e4"^^<` + xsd + `double>`, 2},
		{`99999999999999999999`, 2},
		{`"INF"^^<` + xsd + `double>`, 2},
		{`"NaN"^^<` + xsd + `double>`, 0},
	} {
		q := `SELECT ?x WHERE { ?x <v> ?n FILTER(?n < ` + tc.constant + `) }`
		res, err := s.Query(q)
		if err != nil {
			t.Errorf("%s: %v", tc.constant, err)
			continue
		}
		if len(res.Rows) != tc.want {
			t.Errorf("?n < %s: %d rows, want %d", tc.constant, len(res.Rows), tc.want)
		}
		ex, err := s.Explain(q)
		if err != nil {
			t.Errorf("explain ?n < %s: %v", tc.constant, err)
			continue
		}
		if strings.Contains(tc.constant, "NaN") {
			continue // SQL has no NaN literal
		}
		if _, err := rel.ParseQuery(ex.SQL); err != nil {
			t.Errorf("?n < %s: the printed SQL does not parse: %v\n%s", tc.constant, err, ex.SQL)
		}
	}
}

// TestNaNIsUnordered: NaN compares false to every number under = < <=
// > >= and true under !=, and ORDER BY still takes it.
func TestNaNIsUnordered(t *testing.T) {
	s := numericStore(t, `<c> <v> "NaN"^^<`+xsd+`double> .`)
	for op, want := range map[string]string{"=": "a", "<=": "a", ">=": "a", "<": "", ">": "", "!=": "c"} {
		if got := subjects(t, s, `SELECT ?x WHERE { ?x <v> ?n FILTER(?n `+op+` 5) }`); got != want {
			t.Errorf("?n %s 5: {%s}, want {%s}", op, got, want)
		}
	}
	if got := subjects(t, s, `SELECT ?x WHERE { ?x <v> ?n } ORDER BY ?n`); got != "a,c" {
		t.Errorf("ORDER BY over NaN: {%s}", got)
	}
}
