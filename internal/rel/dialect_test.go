package rel

import (
	"math"
	"strings"
	"testing"
)

// TestBindRejectsOutsideDialect: every shape outside the dialect the
// translators build is an error that names the shape — through
// ParseQuery for text, and through Bind for what a built AST can still
// express. Nothing outside the dialect executes.
func TestBindRejectsOutsideDialect(t *testing.T) {
	const lateralRule = "a lateral correlates to the FROM item right before it, a base table with no JOIN chain"
	for _, tc := range []struct{ name, sql, want string }{
		{"select star", "SELECT * FROM t AS T", "a * select item"},
		{"qualified star", "SELECT T.* FROM t AS T", "a * select item"},
		{"star over a lateral", "SELECT * FROM t AS T, " + pairsOfT + " WHERE T.id = 2", "a * select item"},
		{"item without AS", "SELECT T.a FROM t AS T", "a select item needs AS name"},
		{"item with a bare alias", "SELECT T.a x FROM t AS T", "a select item needs AS name"},
		{"FROM item without alias", "SELECT T.a AS a FROM t", "FROM item t needs AS alias"},
		{"FROM item with a bare alias", "SELECT T.a AS a FROM t T", "FROM item t needs AS alias"},
		{"bare column in an item", "SELECT a AS a FROM t AS T", "column a must be qualified"},
		{"bare column in WHERE", "SELECT T.a AS a FROM t AS T WHERE a = 1", "column a must be qualified"},
		{"bare column next to qualified ones", "SELECT x.v AS v, y.w AS w FROM a AS x, b AS y WHERE k = 5 AND x.v < y.w", "column k must be qualified"},
		{"bare column in ON", "SELECT T.a AS a FROM t AS T LEFT OUTER JOIN u AS U ON a = U.a", "column a must be qualified"},
		{"qualified ORDER BY key", "SELECT T.a AS a FROM t AS T ORDER BY T.a", "ORDER BY key T.a must name an output column bare"},
		{"UNION without ALL", "SELECT T.a AS a FROM t AS T UNION SELECT U.a AS a FROM u AS U", "UNION without ALL"},
		{"parenthesized UNION ALL arm", "SELECT T.a AS a FROM t AS T UNION ALL (SELECT U.a AS a FROM u AS U)", "a parenthesized UNION ALL arm"},
		{"INNER JOIN", "SELECT T.a AS a FROM t AS T INNER JOIN u AS U ON T.a = U.a", "INNER JOIN is not supported"},
		{"JOIN", "SELECT T.a AS a FROM t AS T JOIN u AS U ON T.a = U.a", "INNER JOIN is not supported"},
		{"LEFT JOIN without OUTER", "SELECT T.a AS a FROM t AS T LEFT JOIN u AS U ON T.a = U.a", "expected OUTER"},
		{"IN list", "SELECT T.a AS a FROM t AS T WHERE T.a IN (1, 2)", "an IN list"},
		{"NOT IN list", "SELECT T.a AS a FROM t AS T WHERE T.a NOT IN (1)", "an IN list"},
		{"unary minus on a column", "SELECT -T.a AS a FROM t AS T", "unary minus applies to a number only"},
		{"unary minus on a parenthesized number", "SELECT -(1) AS a FROM t AS T", "unary minus applies to a number only"},
		{"derived table", "SELECT S.a AS a FROM (SELECT T.a AS a FROM t AS T) AS S", "a derived table"},
		{"lateral over a CTE", "WITH C AS (SELECT T.p0 AS a, T.v0 AS b FROM t AS T) SELECT L.p AS p FROM C AS X, TABLE(VALUES (X.a, X.b)) AS L(p, v)",
			"AS L correlates to x; " + lateralRule},
		{"lateral over a joined unit", "SELECT A.id AS id, L.x AS x FROM k AS A LEFT OUTER JOIN t AS B ON A.id = B.id, TABLE(VALUES (B.v0), (B.v1)) AS L(x)",
			"AS L correlates to b; " + lateralRule},
		{"lateral over a unit with a JOIN chain", "SELECT L.p AS p FROM t AS T LEFT OUTER JOIN s AS S ON T.v0 = S.lid, " + pairsOfT,
			"AS L correlates to t; " + lateralRule},
		{"lateral over an earlier item", "SELECT L.p AS p FROM t AS T, k AS K, " + pairsOfT, "AS L correlates to t; " + lateralRule},
		{"lateral over a lateral", "SELECT M.y AS y FROM t AS T, " + pairsOfT + ", TABLE(VALUES (L.p), (L.v)) AS M(y)", "AS M correlates to l; " + lateralRule},
		{"JOIN on a lateral", "SELECT L.p AS p FROM t AS T, " + pairsOfT + " LEFT OUTER JOIN s AS S ON L.v = S.lid", "AS L cannot be followed by a JOIN"},
		// A core joins at most two units; a lateral is part of its host's.
		{"three comma units", "SELECT B.a AS a FROM u AS B LEFT OUTER JOIN s AS S ON B.a = S.lid, v AS C, t AS T, " + pairsOfT + " WHERE B.a = C.a AND C.a = T.id",
			"FROM B, C, T joins 3 items"},
		// Rows hold ids: an item or a lateral cell that can yield
		// anything else is named in the error.
		{"float literal item", "SELECT 1.5 AS x FROM t AS T", "select item 1.5 AS x is not id-valued"},
		{"string literal item", "SELECT 'a' AS x FROM t AS T", "select item 'a' AS x is not id-valued"},
		{"bool literal item", "SELECT TRUE AS x FROM t AS T", "select item TRUE AS x is not id-valued"},
		{"arithmetic item", "SELECT T.a + 1 AS x FROM t AS T", "select item (T.a + 1) AS x is not id-valued"},
		{"arithmetic item in a CTE", "WITH C AS (SELECT T.a / 2.0 AS h FROM t AS T) SELECT C.h AS h FROM C AS C", "select item (T.a / 2.0) AS h is not id-valued"},
		{"comparison item", "SELECT T.a = 1 AS x FROM t AS T", "select item T.a = 1 AS x is not id-valued"},
		{"IS NULL item", "SELECT T.a IS NULL AS x FROM t AS T", "select item T.a IS NULL AS x is not id-valued"},
		{"function item", "SELECT dnum(T.a) AS x FROM t AS T", "select item dnum(T.a) AS x is not id-valued"},
		{"CASE with a non-id THEN", "SELECT CASE WHEN T.a = 1 THEN 'x' ELSE T.a END AS x FROM t AS T", "select item CASE WHEN T.a = 1 THEN 'x' ELSE T.a END AS x is not id-valued"},
		{"CASE with a non-id ELSE", "SELECT CASE WHEN T.a = 1 THEN T.a ELSE 0.5 END AS x FROM t AS T", "select item CASE WHEN T.a = 1 THEN T.a ELSE 0.5 END AS x is not id-valued"},
		{"COALESCE with a non-id argument", "SELECT COALESCE(T.a, 0.5) AS x FROM t AS T", "select item COALESCE(T.a, 0.5) AS x is not id-valued"},
		{"COALESCE over a CASE with a non-id result", "SELECT COALESCE(T.a, CASE WHEN T.b = 1 THEN 'y' END) AS x FROM t AS T", "AS x is not id-valued"},
		{"string lateral cell", "SELECT L.p AS p FROM t AS T, TABLE(VALUES (T.p0, 'x')) AS L(p, v)", "AS L has cell 'x', which is not id-valued"},
		{"float lateral cell", "SELECT L.p AS p FROM t AS T, TABLE(VALUES (T.p0, T.v0), (2.5, T.v1)) AS L(p, v)", "AS L has cell 2.5, which is not id-valued"},
		{"NULL's id as an item", "SELECT -9223372036854775808 AS i FROM t AS T", "select item -9223372036854775808 AS i is not id-valued"},
		{"NULL's id in a CASE item", "SELECT CASE WHEN T.a = 1 THEN -9223372036854775808 END AS i FROM t AS T",
			"select item CASE WHEN T.a = 1 THEN -9223372036854775808 END AS i is not id-valued"},
		{"NULL's id in a COALESCE item", "SELECT COALESCE(T.a, -9223372036854775808) AS i FROM t AS T",
			"select item COALESCE(T.a, -9223372036854775808) AS i is not id-valued"},
		{"NULL's id as a lateral cell", "SELECT L.p AS p FROM t AS T, TABLE(VALUES (T.p0, T.v0), (-9223372036854775808, T.v1)) AS L(p, v)",
			"AS L has cell -9223372036854775808, which is not id-valued"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if q, err := ParseQuery(tc.sql); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s:\n got %v (%v)\nwant an error containing %q", tc.sql, err, q, tc.want)
			}
		})
	}

	// Shapes a built AST can still express.
	col := func(alias, name string) *ColRef { return &ColRef{Alias: alias, Column: name} }
	item := func(e Expr, name string) []SelectItem { return []SelectItem{{Expr: e, Alias: name}} }
	base := FromItem{Table: "t", Alias: "T"}
	lateral := FromItem{Lateral: &Lateral{Rows: [][]Expr{{col("T", "p0")}}, Cols: []string{"p"}}, Alias: "L"}
	joined := func(right FromItem) FromItem {
		return FromItem{Table: "t", Alias: "T", Joins: []JoinClause{{Right: right, On: &BinOp{Op: "=", L: col("T", "a"), R: col(right.Alias, "a")}}}}
	}
	for _, tc := range []struct {
		name string
		q    *Query
		want string
	}{
		{"bare ColRef in an item", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("", "a"), "a"), From: []FromItem{base}}}}},
			"column a must be qualified"},
		{"bare ColRef in WHERE", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("T", "a"), "a"), From: []FromItem{base},
			Where: &BinOp{Op: "=", L: col("", "a"), R: &Lit{V: Int(1)}}}}}}, "column a must be qualified"},
		{"bare ColRef in ON", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("T", "a"), "a"),
			From: []FromItem{{Table: "t", Alias: "T", Joins: []JoinClause{{Right: FromItem{Table: "u", Alias: "U"}, On: col("", "a")}}}}}}}},
			"column a must be qualified"},
		{"item without Alias", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("T", "a"), ""), From: []FromItem{base}}}}},
			"select item 1 has no AS name"},
		{"FROM item without Alias", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("T", "a"), "a"), From: []FromItem{{Table: "t"}}}}}},
			"FROM item t has no AS alias"},
		{"ORDER BY ColRef with an alias", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("T", "a"), "a"), From: []FromItem{base}}},
			OrderBy: []OrderItem{{Expr: col("T", "a")}}}}, "ORDER BY key T.a must name an output column bare"},
		{"unary minus", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(&UnOp{Op: "-", X: col("T", "a")}, "a"), From: []FromItem{base}}}}},
			"unary - is not supported"},
		{"JOIN chain on a JOIN's right side", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("T", "a"), "a"),
			From: []FromItem{joined(joined(FromItem{Table: "u", Alias: "U"}))}}}}}, "cannot have a JOIN chain"},
		{"lateral FromItem over a CTE", &Query{CTEs: []CTE{{Name: "t", Select: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("U", "p0"), "p0"),
			From: []FromItem{{Table: "u", Alias: "U"}}}}}}},
			Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("L", "p"), "p"), From: []FromItem{base, lateral}}}}},
			"AS L correlates to t; " + lateralRule},
		{"lateral with a JOIN chain", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("L", "p"), "p"),
			From: []FromItem{base, {Lateral: lateral.Lateral, Alias: "L", Joins: []JoinClause{{Right: FromItem{Table: "u", Alias: "U"}, On: &Lit{V: Bool(true)}}}}}}}}},
			"AS L cannot be followed by a JOIN"},
		{"three comma FromItems", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("A", "a"), "a"),
			From: []FromItem{{Table: "t", Alias: "A"}, {Table: "u", Alias: "B"}, {Table: "v", Alias: "C"}}}}}},
			"FROM A, B, C joins 3 items"},
		{"float Lit item", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(&Lit{V: Float(2)}, "two"), From: []FromItem{base}}}}},
			"select item 2.0 AS two is not id-valued"},
		{"string Lit lateral cell", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("L", "p"), "p"),
			From: []FromItem{base, {Lateral: &Lateral{Rows: [][]Expr{{col("T", "p0")}, {&Lit{V: Str("s")}}}, Cols: []string{"p"}}, Alias: "L"}}}}}},
			"AS L has cell 's', which is not id-valued"},
		{"NULL's id as a Lit item", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(&Lit{V: Int(math.MinInt64)}, "i"), From: []FromItem{base}}}}},
			"select item -9223372036854775808 AS i is not id-valued"},
		{"NULL's id as a Lit lateral cell", &Query{Body: &Select{Limit: -1, Cores: []*SelectCore{{Items: item(col("L", "p"), "p"),
			From: []FromItem{base, {Lateral: &Lateral{Rows: [][]Expr{{col("T", "p0")}, {&Lit{V: Int(math.MinInt64)}}}, Cols: []string{"p"}}, Alias: "L"}}}}}},
			"AS L has cell -9223372036854775808, which is not id-valued"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := Bind(tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}

	// Every id-valued form binds.
	const idValued = "SELECT T.a AS a, NULL AS n, -3 AS i, CASE WHEN dnum(T.b) = 'x' THEN T.a ELSE COALESCE(T.c, 7) END AS c, " +
		"COALESCE(T.a, CASE WHEN T.b = 1 THEN NULL END, T.b) AS d FROM t AS T, TABLE(VALUES (T.p0, NULL), (-1, T.v1)) AS L(p, v)"
	if _, err := ParseQuery(idValued); err != nil {
		t.Fatalf("%s: %v", idValued, err)
	}

	// A function is one a DB registers, or COALESCE: a call to any
	// other name fails when it is evaluated.
	db := NewDB()
	mustTable(t, db, "t", Schema{{Name: "a"}}, []Row{{ID(-1)}})
	for _, name := range []string{"abs", "length", "lower", "contains"} {
		sql := "SELECT T.a AS a FROM t AS T WHERE " + name + "(T.a) = 1"
		if _, err := query(db, sql); err == nil || !strings.Contains(err.Error(), `unknown function "`+name+`"`) {
			t.Errorf("%s: got %v, want unknown function %q", sql, err, name)
		}
	}
}
