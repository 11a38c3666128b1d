package rel

import (
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := Bind(tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
