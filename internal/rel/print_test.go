package rel

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// printSeeds are statements over every construct the dialect has.
var printSeeds = []string{
	"SELECT T.a AS a FROM t AS T",
	"SELECT DISTINCT T.a AS x, U.b AS y FROM t AS T, u AS U WHERE T.a = U.b AND U.c IS NOT NULL ORDER BY x DESC, y ASC LIMIT 5 OFFSET 2",
	"WITH q AS (SELECT T.a AS a FROM t AS T WHERE (T.b = 1 OR T.c = 2) AND NOT T.d = 3),\nr AS (SELECT Q.a AS a FROM q AS Q)\nSELECT R.a AS a FROM r AS R",
	"SELECT T.a AS a FROM t AS T WHERE (T.a = 1 OR T.b = 2) OR T.c = 3",
	"SELECT T.a AS a FROM t AS T WHERE T.a = 1 OR T.b = 2 OR (T.c = 3 OR T.d = 4) OR T.e = 5",
	"SELECT T.a AS a FROM t AS T WHERE (T.a = 1 AND T.b = 2) AND (T.c = 3 AND T.d = 4) AND NOT (T.e = 5 OR T.f = 6)",
	"SELECT 007 AS h, -9223372036854775807 AS i, T.a AS a FROM t AS T WHERE T.a + T.b * T.c - T.d / 2 = T.a - -1 AND 0 - T.a < 1.5 AND " +
		"T.b < 1e21 AND T.c > 2.5E-7 AND T.d != 1.e3 AND T.e < 1e999 AND T.f > -1e999 AND T.g != -2.5 AND T.h > -9223372036854775808",
	"SELECT NULL AS c, COALESCE(T.a, 0) AS f FROM t AS T WHERE (f() = 'it''s' OR dnum(T.a) = '') AND T.b = TRUE AND T.c != FALSE",
	"SELECT CASE WHEN T.a = 1 THEN T.b WHEN T.a IS NULL THEN 2 ELSE NULL END AS a, CASE WHEN T.b THEN 1 END AS b FROM t AS T " +
		"WHERE CASE WHEN T.a = 1 THEN 'x' WHEN T.a IS NULL THEN 'y' ELSE 'z' END = 'x'",
	"SELECT T.a AS a FROM t AS T WHERE T.a != 1 AND T.b <> 2 AND T.a < 3 AND T.a <= 4 AND T.a > 5 AND T.a >= 6 AND (T.a = 1) = (T.b = 2) AND (T.a IS NULL) IS NOT NULL",
	"SELECT T.a AS a FROM t AS T UNION ALL SELECT U.b AS a FROM u AS U UNION ALL SELECT V.c AS a FROM v AS V ORDER BY a",
	"SELECT P.a AS a, O.b AS b FROM t AS P LEFT OUTER JOIN u AS O ON P.a = O.a AND P.b = O.b LEFT OUTER JOIN w AS W ON 1 = 1, v AS V WHERE V.c = P.a",
	"WITH q AS (SELECT T.a AS a FROM t AS T)\nSELECT Q.a AS a FROM q AS Q ORDER BY dsort(a) DESC, a LIMIT 1",
	"SELECT L.p AS p, L.v AS v FROM t AS T, TABLE(VALUES (T.p0, T.v0), (T.p1, 7)) AS L(p, v) WHERE L.p IS NOT NULL",
	"SELECT table.values AS values FROM table AS table WHERE table.values = 3",
}

// FuzzSQLPrintRoundTrip: any text ParseQuery accepts prints to text that
// parses to an equal query, bound form included, and printing that
// query again gives the same text.
func FuzzSQLPrintRoundTrip(f *testing.F) {
	for _, s := range printSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := ParseQuery(sql)
		if err != nil {
			return
		}
		text := q.String()
		back, err := ParseQuery(text)
		if err != nil {
			t.Fatalf("%q prints as\n%s\nwhich does not parse: %v", sql, text, err)
		}
		if !reflect.DeepEqual(q, back) {
			t.Fatalf("%q prints as\n%s\nwhich parses to a different query", sql, text)
		}
		if again := back.String(); again != text {
			t.Fatalf("printing is not stable:\n%s\n%s", text, again)
		}
	})
}

func TestPrintShapes(t *testing.T) {
	for _, sql := range printSeeds {
		if _, err := ParseQuery(sql); err != nil {
			t.Errorf("seed %q does not parse: %v", sql, err)
		}
	}
	for _, tc := range []struct{ sql, want string }{
		// A WHERE clause's top-level AND chain is bare; nested chains
		// keep their grouping.
		{"SELECT T.a AS a FROM t AS T WHERE T.a = 1 AND (T.b = 2 OR T.c = 3) AND (T.d = 4 AND T.e = 5)",
			"SELECT T.a AS a FROM t AS T WHERE T.a = 1 AND (T.b = 2 OR T.c = 3) AND (T.d = 4 AND T.e = 5)"},
		{"SELECT T.a AS a FROM t AS T WHERE (T.a = 1 OR T.b = 2) OR T.c = 3", "SELECT T.a AS a FROM t AS T WHERE ((T.a = 1 OR T.b = 2) OR T.c = 3)"},
		{"SELECT T.a AS x FROM t AS T WHERE T.a + T.b * T.c = 0 - T.a AND T.a - -1 = 1e3 AND T.b = 2.5 AND T.c = 1e21",
			"SELECT T.a AS x FROM t AS T WHERE (T.a + (T.b * T.c)) = (0 - T.a) AND (T.a - -1) = 1000.0 AND T.b = 2.5 AND T.c = 1e+21"},
		{"WITH q AS (SELECT T.a AS a FROM t AS T)\nSELECT Q.a AS a FROM q AS Q UNION ALL SELECT Q.a AS a FROM q AS Q ORDER BY a DESC LIMIT 1",
			"WITH q AS (SELECT T.a AS a FROM t AS T)\nSELECT Q.a AS a FROM q AS Q\nUNION ALL\nSELECT Q.a AS a FROM q AS Q ORDER BY a DESC LIMIT 1"},
	} {
		q, err := ParseQuery(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.String(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.sql, got, tc.want)
		}
	}
}

// TestPrintNumbers: a float constant prints in a form that reads back
// as the same float, ±Inf included; an int constant as the same int.
func TestPrintNumbers(t *testing.T) {
	for _, v := range []Value{
		Float(1000), Float(-1000), Float(1e21), Float(2.5e-7), Float(0.1), Float(math.MaxFloat64),
		Float(math.SmallestNonzeroFloat64), Float(math.Inf(1)), Float(math.Inf(-1)),
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
	} {
		q := &Query{Body: &Select{Cores: []*SelectCore{{Items: []SelectItem{{Expr: &ColRef{Alias: "t", Column: "a"}, Alias: "a"}},
			From: []FromItem{{Table: "t", Alias: "t"}}, Where: &BinOp{Op: "=", L: &ColRef{Alias: "t", Column: "a"}, R: &Lit{V: v}}}}, Limit: -1}}
		text := q.String()
		back, err := ParseQuery(text)
		if err != nil {
			t.Fatalf("%v prints as %q: %v", v, text, err)
		}
		if got := back.Body.Cores[0].Where.(*BinOp).R.(*Lit).V; got != v {
			t.Errorf("%v prints as %q, which reads back as %v", v, text, got)
		}
	}
}

// TestBindIsRequired: a Query built in code executes only once Bind has
// accepted it; Bind lower-cases its references and rejects the lateral
// items ParseQuery rejects, without a source offset.
func TestBindIsRequired(t *testing.T) {
	db := pairsDB(t)
	q := &Query{Body: &Select{Cores: []*SelectCore{{
		Items: []SelectItem{{Expr: &ColRef{Alias: "T", Column: "ID"}, Alias: "ID"}},
		From:  []FromItem{{Table: "T", Alias: "T"}},
		Where: &BinOp{Op: "=", L: &ColRef{Alias: "T", Column: "Id"}, R: &Lit{V: Int(1)}},
	}}, Limit: -1}}
	if _, err := db.Exec(q); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("an unbound query must not execute, got %v", err)
	}
	if err := Bind(q); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Exec(q)
	if err != nil || len(rs.Rows) != 1 || rs.Columns[0] != "id" {
		t.Fatalf("bound query: %v, %v", rs, err)
	}

	lat := func(rows [][]Expr, cols ...string) FromItem {
		return FromItem{Lateral: &Lateral{Rows: rows, Cols: cols}, Alias: "L"}
	}
	base := FromItem{Table: "t", Alias: "T"}
	for _, tc := range []struct {
		from []FromItem
		want string
	}{
		{[]FromItem{lat([][]Expr{{&ColRef{Alias: "T", Column: "p0"}}}, "p"), base}, `sql: TABLE(VALUES ...) AS L refers to unknown alias "t"`},
		{[]FromItem{base, lat([][]Expr{{&ColRef{Alias: "T", Column: "p0"}}}, "p", "v")}, "sql: TABLE(VALUES ...) row 1 has 1 values, AS L names 2 columns"},
		{[]FromItem{base, lat([][]Expr{{&Lit{V: Int(1)}}}, "p")}, "sql: TABLE(VALUES ...) AS L refers to no FROM item"},
		{[]FromItem{{Table: "t", Alias: "T", Joins: []JoinClause{{Right: lat([][]Expr{{&ColRef{Alias: "T", Column: "p0"}}}, "p"), On: &Lit{V: Bool(true)}}}}},
			"sql: TABLE(VALUES ...) cannot be the right side of a JOIN"},
	} {
		q := &Query{Body: &Select{Cores: []*SelectCore{{Items: []SelectItem{{Expr: &Lit{V: Int(1)}, Alias: "one"}}, From: tc.from}}, Limit: -1}}
		if err := Bind(q); err == nil || err.Error() != tc.want {
			t.Errorf("got %v, want %s", err, tc.want)
		}
	}
}
