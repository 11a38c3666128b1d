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
// included), and the two execute to the same rows. Every WHERE
// conjunct over one base-table alias compares ids by equality alone
// (see baseConjuncts), the one filter shape the scan vectorizes.
func TestTranslatedSQLRoundTrip(t *testing.T) {
	var mu sync.Mutex
	checked, conjuncts := 0, 0
	remove := db2rdf.SetCompileHookForTest(func(tr *translator.Result, exec func(*rel.Query) (*rel.ResultSet, error)) {
		if tr.Query == nil {
			return
		}
		base := baseConjuncts(tr.Query)
		for _, c := range base {
			if !idEquality(c) {
				t.Errorf("a conjunct on one base table is not an AND/OR tree of col = <int> and col = col: %s\n%s",
					conjunctSQL(c), tr.SQL)
			}
		}
		mu.Lock()
		checked++
		conjuncts += len(base)
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
	t.Logf("%d compiled queries round-trip; %d conjuncts on one base table compare ids by equality", checked, conjuncts)
}

// baseConjuncts returns the WHERE conjuncts of q, in every select core
// including those of CTEs, whose column references all name one
// base-table alias: a FROM item (or joined item) that is not a CTE or
// a lateral.
func baseConjuncts(q *rel.Query) []rel.Expr {
	ctes := map[string]bool{}
	for _, c := range q.CTEs {
		ctes[strings.ToLower(c.Name)] = true
	}
	var out []rel.Expr
	var walkSelect func(*rel.Select)
	var walkFrom func(rel.FromItem, map[string]bool)
	walkFrom = func(f rel.FromItem, bases map[string]bool) {
		if f.Lateral == nil && !ctes[strings.ToLower(f.Table)] {
			bases[strings.ToLower(f.Alias)] = true
		}
		for _, j := range f.Joins {
			walkFrom(j.Right, bases)
		}
	}
	walkSelect = func(s *rel.Select) {
		for _, core := range s.Cores {
			bases := map[string]bool{}
			for _, f := range core.From {
				walkFrom(f, bases)
			}
			for _, c := range splitAnd(core.Where, nil) {
				aliases := map[string]bool{}
				eachColRef(c, func(cr *rel.ColRef) { aliases[strings.ToLower(cr.Alias)] = true })
				if len(aliases) != 1 {
					continue
				}
				for a := range aliases {
					if bases[a] {
						out = append(out, c)
					}
				}
			}
		}
	}
	for _, c := range q.CTEs {
		walkSelect(c.Select)
	}
	walkSelect(q.Body)
	return out
}

// splitAnd appends the top-level AND operands of e (nil: none) to out.
func splitAnd(e rel.Expr, out []rel.Expr) []rel.Expr {
	if b, ok := e.(*rel.BoolOp); ok && b.Op == "AND" {
		for _, a := range b.Args {
			out = splitAnd(a, out)
		}
		return out
	}
	if e == nil {
		return out
	}
	return append(out, e)
}

// eachColRef calls f on every column reference in e.
func eachColRef(e rel.Expr, f func(*rel.ColRef)) {
	switch x := e.(type) {
	case *rel.ColRef:
		f(x)
	case *rel.BinOp:
		eachColRef(x.L, f)
		eachColRef(x.R, f)
	case *rel.BoolOp:
		for _, a := range x.Args {
			eachColRef(a, f)
		}
	case *rel.UnOp:
		eachColRef(x.X, f)
	case *rel.IsNullExpr:
		eachColRef(x.X, f)
	case *rel.CaseExpr:
		for _, w := range x.Whens {
			eachColRef(w.Cond, f)
			eachColRef(w.Result, f)
		}
		if x.Else != nil {
			eachColRef(x.Else, f)
		}
	case *rel.FuncCall:
		for _, a := range x.Args {
			eachColRef(a, f)
		}
	}
}

// conjunctSQL prints c as the WHERE clause of a one-core query.
func conjunctSQL(c rel.Expr) string {
	q := &rel.Query{Body: &rel.Select{Limit: -1, Cores: []*rel.SelectCore{{Items: []rel.SelectItem{{Expr: translator.IntLit(1), Alias: "one"}}, Where: c}}}}
	_, where, _ := strings.Cut(q.String(), " WHERE ")
	return where
}

// idEquality reports whether e is an AND/OR tree of `col = <int
// literal>` and `col = col`.
func idEquality(e rel.Expr) bool {
	switch x := e.(type) {
	case *rel.BoolOp:
		for _, a := range x.Args {
			if !idEquality(a) {
				return false
			}
		}
		return true
	case *rel.BinOp:
		if _, ok := x.L.(*rel.ColRef); !ok || x.Op != "=" {
			return false
		}
		switch r := x.R.(type) {
		case *rel.ColRef:
			return true
		case *rel.Lit:
			return r.V.K == rel.KindInt
		}
	}
	return false
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
