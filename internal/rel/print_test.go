package rel

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// printSeeds are statements over every construct the grammar has.
var printSeeds = []string{
	"SELECT a FROM t",
	"SELECT DISTINCT T.a AS x, b y, * , T.* FROM t AS T, u WHERE T.a = u.b AND u.c IS NOT NULL ORDER BY x DESC, y ASC LIMIT 5 OFFSET 2",
	"WITH q AS (SELECT T.a AS a FROM t AS T WHERE (T.b = 1 OR T.c = 2) AND NOT T.d = 3),\nr AS (SELECT a FROM q)\nSELECT a FROM r",
	"SELECT a FROM t WHERE (a = 1 OR b = 2) OR c = 3",
	"SELECT a FROM t WHERE a = 1 OR b = 2 OR (c = 3 OR d = 4) OR e = 5",
	"SELECT a FROM t WHERE (a = 1 AND b = 2) AND (c = 3 AND d = 4) AND NOT (e = 5 OR f = 6)",
	"SELECT a + b * c - d / 2, -a, - -a, -(a + 1), a - -1, 1.5, 1e21, 2.5E-7, 1.e3, 007, -9223372036854775808, 1e999, -1e999 FROM t",
	"SELECT 'it''s', '', NULL, TRUE, FALSE, COALESCE(a, 0), f(), dnum(a) FROM t",
	"SELECT CASE WHEN a = 1 THEN 'x' WHEN a IS NULL THEN 'y' ELSE 'z' END, CASE WHEN b THEN 1 END FROM t",
	"SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x') AND (a = 1) = (b = 2) AND (a IS NULL) IS NOT NULL",
	"SELECT a FROM t UNION SELECT b FROM u UNION ALL (SELECT c FROM v) ORDER BY a",
	"SELECT P.a, O.b FROM t AS P LEFT OUTER JOIN u AS O ON P.a = O.a AND P.b = O.b JOIN v AS V ON V.c = P.a LEFT JOIN w ON 1 = 1",
	"SELECT s.a FROM (SELECT a FROM t UNION ALL SELECT b FROM u LIMIT 3) AS s",
	"SELECT L.p, L.v FROM t AS T, TABLE(VALUES (T.p0, T.v0), (T.p1, 7)) AS L(p, v) WHERE L.p IS NOT NULL",
	"SELECT table.values FROM table WHERE table.values = 3",
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
	for _, tc := range []struct{ sql, want string }{
		// A WHERE clause's top-level AND chain is bare; nested chains
		// keep their grouping.
		{"SELECT a FROM t WHERE a = 1 AND (b = 2 OR c = 3) AND (d = 4 AND e = 5)",
			"SELECT a FROM t AS t WHERE a = 1 AND (b = 2 OR c = 3) AND (d = 4 AND e = 5)"},
		{"SELECT a FROM t WHERE (a = 1 OR b = 2) OR c = 3", "SELECT a FROM t AS t WHERE ((a = 1 OR b = 2) OR c = 3)"},
		{"SELECT a + b * c, -a, a - -1, 1e3, 2.5, 1e21 FROM t",
			"SELECT (a + (b * c)), -(a), (a - -1), 1000.0, 2.5, 1e+21 FROM t AS t"},
		{"WITH q AS (SELECT a FROM t)\nSELECT a FROM q UNION ALL SELECT a FROM q ORDER BY a DESC LIMIT 1",
			"WITH q AS (SELECT a FROM t AS t)\nSELECT a FROM q AS q\nUNION ALL\nSELECT a FROM q AS q ORDER BY a DESC LIMIT 1"},
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
		q := &Query{Body: &Select{Cores: []*SelectCore{{Items: []SelectItem{{Expr: &Lit{V: v}, Alias: "x"}}, From: []FromItem{{Table: "t", Alias: "t"}}}}, Limit: -1}}
		text := q.String()
		back, err := ParseQuery(text)
		if err != nil {
			t.Fatalf("%v prints as %q: %v", v, text, err)
		}
		if got := back.Body.Cores[0].Items[0].Expr.(*Lit).V; got != v {
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
		q := &Query{Body: &Select{Cores: []*SelectCore{{Items: []SelectItem{{Star: true}}, From: tc.from}}, Limit: -1}}
		if err := Bind(q); err == nil || err.Error() != tc.want {
			t.Errorf("got %v, want %s", err, tc.want)
		}
	}
}
