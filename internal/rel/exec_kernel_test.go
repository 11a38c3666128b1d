package rel

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// renderSorted renders a result set's rows into canonical strings and
// sorts them, for order-insensitive comparison.
func renderSorted(rs *ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += " | "
			}
			s += fmt.Sprintf("%#v", v)
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func TestJoinNullsNeverMatch(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "l", Schema{{Name: "id"}, {Name: "k"}}, []Row{
		{Int(1), Int(10)},
		{Int(2), Null},
		{Int(3), Null},
	})
	rt := mustTable(t, db, "r", Schema{{Name: "k"}, {Name: "v"}}, []Row{
		{Int(10), Int(100)},
		{Null, Int(200)},
		{Null, Int(300)},
	})
	rs := queryRows(t, db, "SELECT l.id, r.v FROM l, r WHERE l.k = r.k")
	if len(rs.Rows) != 1 {
		t.Fatalf("NULL keys must never join: want 1 row, got %d: %v", len(rs.Rows), rs.Rows)
	}
	if rs.Rows[0][0].I != 1 || rs.Rows[0][1].I != 100 {
		t.Fatalf("wrong surviving row: %v", rs.Rows[0])
	}
	// Same via the indexed path.
	if err := rt.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	rs = queryRows(t, db, "SELECT l.id, r.v FROM l, r WHERE l.k = r.k")
	if len(rs.Rows) != 1 {
		t.Fatalf("indexed: want 1 row, got %d: %v", len(rs.Rows), rs.Rows)
	}
}

// TestJoinIntMatchesIntegralFloat: join keys compare under cross-kind
// semantics. The floats come from a CTE's select list (b.y / 2.0), so
// stored ids on one side meet 1.0, 1.5 and 2.0 on the other.
func TestJoinIntMatchesIntegralFloat(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "a", Schema{{Name: "x"}}, []Row{
		{Int(1)},
		{Int(2)},
	})
	mustTable(t, db, "b", Schema{{Name: "y"}, {Name: "tag"}}, []Row{
		{Int(2), Int(10)},
		{Int(3), Int(15)},
		{Int(4), Int(20)},
	})
	rs := queryRows(t, db, "WITH bf AS (SELECT b.y / 2.0 AS y, b.tag AS tag FROM b) SELECT a.x, bf.tag FROM a, bf WHERE a.x = bf.y")
	got := renderSorted(rs)
	want := []string{
		fmt.Sprintf("%#v | %#v", Int(1), Int(10)),
		fmt.Sprintf("%#v | %#v", Int(2), Int(20)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("1 must join 1.0 and 2 must join 2.0, 1.5 nothing: got %v", got)
	}
}

// TestMultiColumnJoin joins on an id and a string; the strings come
// from CASE expressions in the CTEs' select lists.
func TestMultiColumnJoin(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "l", Schema{{Name: "a"}, {Name: "b"}, {Name: "id"}}, []Row{
		{Int(1), Int(0), Int(100)},
		{Int(1), Int(1), Int(101)},
		{Int(2), Int(0), Int(102)},
		{Null, Int(0), Int(103)},
	})
	mustTable(t, db, "r", Schema{{Name: "a"}, {Name: "b"}, {Name: "id"}}, []Row{
		{Int(1), Int(0), Int(200)},
		{Int(2), Int(0), Int(201)},
		{Int(2), Int(2), Int(202)},
		{Null, Int(0), Int(203)},
	})
	named := func(t string) string {
		return "SELECT " + t + ".a AS a, CASE WHEN " + t + ".b = 0 THEN 'x' WHEN " + t + ".b = 1 THEN 'y' ELSE 'z' END AS b, " + t + ".id AS id FROM " + t
	}
	rs := queryRows(t, db, "WITH L AS ("+named("l")+"), R AS ("+named("r")+") SELECT L.id, R.id FROM L, R WHERE L.a = R.a AND L.b = R.b")
	got := renderSorted(rs)
	want := []string{
		fmt.Sprintf("%#v | %#v", Int(100), Int(200)),
		fmt.Sprintf("%#v | %#v", Int(102), Int(201)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("want exactly (100,200) and (102,201): got %v", got)
	}
}

func TestOrderByDescNulls(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "v", Schema{{Name: "id"}, {Name: "x"}}, []Row{
		{Int(1), Int(5)},
		{Int(2), Null},
		{Int(3), Int(9)},
	})
	// ASC sorts NULLs last; DESC is its exact reversal, so NULLs come
	// first.
	rs := queryRows(t, db, "SELECT id, x FROM v ORDER BY x DESC")
	var ids []int64
	for _, r := range rs.Rows {
		ids = append(ids, r[0].I)
	}
	if !reflect.DeepEqual(ids, []int64{2, 3, 1}) {
		t.Fatalf("ORDER BY x DESC: want ids [2 3 1] (NULL first), got %v", ids)
	}
}

func TestOffsetEqualsRowCount(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "v", Schema{{Name: "x"}}, []Row{
		{Int(1)}, {Int(2)}, {Int(3)},
	})
	rs := queryRows(t, db, "SELECT x FROM v ORDER BY x LIMIT 10 OFFSET 3")
	if len(rs.Rows) != 0 {
		t.Fatalf("OFFSET == len(rows) must yield 0 rows, got %d", len(rs.Rows))
	}
	rs = queryRows(t, db, "SELECT x FROM v ORDER BY x LIMIT 10 OFFSET 2")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 3 {
		t.Fatalf("OFFSET 2 must keep the last row, got %v", rs.Rows)
	}
}

func TestDistinctMixedKinds(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "ints", Schema{{Name: "x"}}, []Row{
		{Int(1)}, {Int(1)}, {Int(2)}, {Null},
	})
	mustTable(t, db, "halves", Schema{{Name: "x"}}, []Row{
		{Int(2)}, {Int(5)}, {Null},
	})
	// DISTINCT over a union of int rows and float rows (h.x / 2.0 is 1.0,
	// 2.5 and NULL): 1 and 1.0 are the same key, both NULLs collapse, 2.5
	// stays.
	rs := queryRows(t, db, "SELECT x FROM ints UNION SELECT h.x / 2.0 FROM halves AS h")
	if len(rs.Rows) != 4 {
		t.Fatalf("want 4 distinct values {NULL, 1, 2, 2.5}, got %d: %v", len(rs.Rows), renderSorted(rs))
	}
}

// TestSeparatorCollision is a regression test for the old row-key
// scheme, which concatenated raw column renderings with a \x1f
// separator: a value containing \x1f could shift the column boundary
// and alias a different row. The strings come from CASE expressions.
func TestSeparatorCollision(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "p", Schema{{Name: "id"}}, []Row{{Int(1)}, {Int(2)}})
	mustTable(t, db, "q", Schema{{Name: "id"}}, []Row{{Int(1)}})
	// Old scheme: key("a\x1fb", "c") == "a" + \x1f + "b" + \x1f + "c"
	// == key("a", "b\x1fc"). The two rows are distinct and must stay so.
	const ctes = "WITH P AS (SELECT CASE WHEN p.id = 1 THEN 'a\x1fb' ELSE 'a' END AS a, " +
		"CASE WHEN p.id = 1 THEN 'c' ELSE 'b\x1fc' END AS b FROM p), " +
		"Q AS (SELECT 'a\x1fb' AS a, 'c' AS b FROM q) "
	rs := queryRows(t, db, ctes+"SELECT DISTINCT a, b FROM P")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows differing only in \\x1f placement must stay distinct, got %d: %v", len(rs.Rows), renderSorted(rs))
	}
	// Same for multi-column hash-join keys.
	rs = queryRows(t, db, ctes+"SELECT P.a FROM P, Q WHERE P.a = Q.a AND P.b = Q.b")
	if len(rs.Rows) != 1 {
		t.Fatalf("multi-column join must match exactly one row, got %d: %v", len(rs.Rows), renderSorted(rs))
	}
}

// kernelCorpus builds a db with enough rows to clear a forced-low
// parallel threshold and returns queries covering the specialized
// paths: int hash join, generic hash join, indexed join, filter,
// projection and DISTINCT. Float and string keys come from CTE select
// lists (n.id / 1.0, CASE … 'lo' …).
func kernelCorpus(t *testing.T) (*DB, []string) {
	t.Helper()
	db := NewDB()
	const n = 3000
	edges := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		to := Value{K: KindInt, I: int64((i*7 + 3) % 997)}
		if i%13 == 0 {
			to = Null
		}
		edges = append(edges, Row{Int(int64(i % 997)), to, Int(int64(i % 57))})
	}
	mustTable(t, db, "e", Schema{{Name: "src"}, {Name: "dst"}, {Name: "lbl"}}, edges)
	nodes := make([]Row, 0, 997)
	for i := 0; i < 997; i++ {
		nodes = append(nodes, Row{Int(int64(i)), Int(int64(i % 31))})
	}
	nt := mustTable(t, db, "node", Schema{{Name: "id"}, {Name: "name"}}, nodes)
	if err := nt.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT e.src, e.dst FROM e WHERE e.src < 100",
		"SELECT DISTINCT e.lbl FROM e",
		"SELECT DISTINCT e.lbl / 2.0 AS l FROM e",
		"SELECT e.src, n.name FROM e, node AS n WHERE e.dst = n.id AND e.src < 200",
		"WITH N AS (SELECT n.id / 1.0 AS id, n.name AS name FROM node AS n) SELECT e.src, N.name FROM e, N WHERE e.dst = N.id AND e.src < 300",
		"SELECT a.src, b.dst FROM e AS a, e AS b WHERE a.dst = b.src AND a.src = 5",
		"WITH L AS (SELECT e.src AS src, e.dst AS dst, CASE WHEN e.lbl < 19 THEN 'lo' WHEN e.lbl < 38 THEN 'mid' ELSE 'hi' END AS lbl FROM e) " +
			"SELECT DISTINCT a.lbl, b.lbl FROM L AS a, L AS b WHERE a.dst = b.src AND a.src < 20",
		"SELECT e.src AS s FROM e ORDER BY s DESC LIMIT 50 OFFSET 10",
	}
	return db, queries
}

// TestParallelKernelEquivalence runs the kernel corpus with morsel
// parallelism forced off and forced on and demands identical results.
func TestParallelKernelEquivalence(t *testing.T) {
	db, queries := kernelCorpus(t)
	defer SetParallelism(0, 0)
	for _, q := range queries {
		SetParallelism(1, 0) // sequential
		seq := renderSorted(queryRows(t, db, q))
		SetParallelism(4, 1) // every operator parallel
		par := renderSorted(queryRows(t, db, q))
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("query %q: sequential and parallel kernels disagree\nseq: %v\npar: %v", q, seq, par)
		}
	}
}
