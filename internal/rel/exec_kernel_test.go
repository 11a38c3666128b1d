package rel

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// render renders a result set's rows into canonical strings, in order.
func render(rs *ResultSet) []string {
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
	return out
}

// renderSorted is render sorted, for order-insensitive comparison.
func renderSorted(rs *ResultSet) []string {
	out := render(rs)
	sort.Strings(out)
	return out
}

func TestJoinNullsNeverMatch(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "l", Schema{{Name: "id"}, {Name: "k"}}, []Row{
		{ID(1), ID(10)},
		{ID(2), NullCell},
		{ID(3), NullCell},
	})
	rt := mustTable(t, db, "r", Schema{{Name: "k"}, {Name: "v"}}, []Row{
		{ID(10), ID(100)},
		{NullCell, ID(200)},
		{NullCell, ID(300)},
	})
	rs := queryRows(t, db, "SELECT l.id AS id, r.v AS v FROM l AS l, r AS r WHERE l.k = r.k")
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
	rs = queryRows(t, db, "SELECT l.id AS id, r.v AS v FROM l AS l, r AS r WHERE l.k = r.k")
	if len(rs.Rows) != 1 {
		t.Fatalf("indexed: want 1 row, got %d: %v", len(rs.Rows), rs.Rows)
	}
}

// TestJoinLargeIdsExact: join links compare as int64 ids. Past 2^53
// float64 cannot tell neighbouring ints apart, so p's 2^53+1 must join
// b's 2^53+1 and not its 2^53 — through the index, hash and nested
// kernels, in both join forms, whichever index exists.
func TestJoinLargeIdsExact(t *testing.T) {
	const big = 1 << 53
	db := NewDB()
	mustTable(t, db, "p", Schema{{Name: "k"}, {Name: "x"}}, []Row{{ID(1), ID(big + 1)}})
	bt := mustTable(t, db, "b", Schema{{Name: "k"}, {Name: "y"}}, []Row{{ID(1), ID(big + 1)}, {ID(1), ID(big)}})
	const cte = "WITH P AS (SELECT p.k AS k, p.x AS x FROM p AS p) "
	want := []string{fmt.Sprintf("%#v", ID(big+1))}
	for _, index := range []string{"", "k", "y"} {
		if index != "" {
			if err := bt.CreateIndex(index); err != nil {
				t.Fatal(err)
			}
		}
		for _, on := range []string{"P.k = b.k AND P.x = b.y", "P.k + 0 = b.k AND P.x = b.y", "P.k + 0 = b.k AND P.x + 0 = b.y"} {
			for _, q := range []string{
				cte + "SELECT b.y AS y FROM P AS P, b AS b WHERE " + on,
				cte + "SELECT b.y AS y FROM P AS P LEFT OUTER JOIN b AS b ON " + on,
			} {
				if got := renderSorted(queryRows(t, db, q)); !reflect.DeepEqual(got, want) {
					t.Errorf("index on b.%s, %s (%s): want only b.y = 2^53+1, got %v", index, q, joinKernel(t, db, q), got)
				}
			}
		}
	}
}

// TestMultiColumnJoin joins on two ids, one of them computed by CASE
// expressions in the CTEs' select lists.
func TestMultiColumnJoin(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "l", Schema{{Name: "a"}, {Name: "b"}, {Name: "id"}}, []Row{
		{ID(1), ID(0), ID(100)},
		{ID(1), ID(1), ID(101)},
		{ID(2), ID(0), ID(102)},
		{NullCell, ID(0), ID(103)},
	})
	mustTable(t, db, "r", Schema{{Name: "a"}, {Name: "b"}, {Name: "id"}}, []Row{
		{ID(1), ID(0), ID(200)},
		{ID(2), ID(0), ID(201)},
		{ID(2), ID(2), ID(202)},
		{NullCell, ID(0), ID(203)},
	})
	named := func(t string) string {
		return "SELECT " + t + ".a AS a, CASE WHEN " + t + ".b = 0 THEN 7 WHEN " + t + ".b = 1 THEN 8 ELSE 9 END AS b, " + t + ".id AS id FROM " + t + " AS " + t
	}
	rs := queryRows(t, db, "WITH L AS ("+named("l")+"), R AS ("+named("r")+") SELECT L.id AS lid, R.id AS rid FROM L AS L, R AS R WHERE L.a = R.a AND L.b = R.b")
	got := renderSorted(rs)
	want := []string{
		fmt.Sprintf("%#v | %#v", ID(100), ID(200)),
		fmt.Sprintf("%#v | %#v", ID(102), ID(201)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("want exactly (100,200) and (102,201): got %v", got)
	}
}

func TestOrderByDescNulls(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "v", Schema{{Name: "id"}, {Name: "x"}}, []Row{
		{ID(1), ID(5)},
		{ID(2), NullCell},
		{ID(3), ID(9)},
	})
	// ASC sorts NULLs last; DESC is its exact reversal, so NULLs come
	// first.
	rs := queryRows(t, db, "SELECT V.id AS id, V.x AS x FROM v AS V ORDER BY x DESC")
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
		{ID(1)}, {ID(2)}, {ID(3)},
	})
	rs := queryRows(t, db, "SELECT V.x AS x FROM v AS V ORDER BY x LIMIT 10 OFFSET 3")
	if len(rs.Rows) != 0 {
		t.Fatalf("OFFSET == len(rows) must yield 0 rows, got %d", len(rs.Rows))
	}
	rs = queryRows(t, db, "SELECT V.x AS x FROM v AS V ORDER BY x LIMIT 10 OFFSET 2")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 3 {
		t.Fatalf("OFFSET 2 must keep the last row, got %v", rs.Rows)
	}
}

// TestDistinctMixedKinds: DISTINCT over ids and NULLs. Equal ids are
// one key, the NULLs of both arms collapse into one, and NULL stays
// apart from every id, 0 included.
func TestDistinctMixedKinds(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "ints", Schema{{Name: "x"}}, []Row{
		{ID(1)}, {ID(1)}, {ID(2)}, {NullCell}, {ID(0)},
	})
	mustTable(t, db, "more", Schema{{Name: "x"}}, []Row{
		{ID(2)}, {ID(5)}, {NullCell},
	})
	rs := queryRows(t, db, "WITH u AS (SELECT i.x AS x FROM ints AS i UNION ALL SELECT m.x AS x FROM more AS m) "+
		"SELECT DISTINCT U.x AS x FROM u AS U")
	want := []string{fmt.Sprintf("%#v", NullCell), fmt.Sprintf("%#v", ID(0)), fmt.Sprintf("%#v", ID(1)), fmt.Sprintf("%#v", ID(2)), fmt.Sprintf("%#v", ID(5))}
	sort.Strings(want)
	if got := renderSorted(rs); !reflect.DeepEqual(got, want) {
		t.Fatalf("want the 5 distinct values {NULL, 0, 1, 2, 5}, got %v", got)
	}
}

// TestSeparatorCollision is a regression test for the old row-key
// scheme, which concatenated column renderings: without a separator
// the rows (1, 23) and (12, 3) both render "123". Distinct rows must
// stay distinct under DISTINCT, and a multi-column hash join must pair
// only rows equal on every link.
func TestSeparatorCollision(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "p", Schema{{Name: "a"}, {Name: "b"}}, []Row{{ID(1), ID(23)}, {ID(12), ID(3)}, {ID(1), ID(23)}})
	mustTable(t, db, "q", Schema{{Name: "a"}, {Name: "b"}}, []Row{{ID(1), ID(23)}})
	rs := queryRows(t, db, "SELECT DISTINCT P.a AS a, P.b AS b FROM p AS P")
	if len(rs.Rows) != 2 {
		t.Fatalf("(1, 23) and (12, 3) must stay distinct, got %d: %v", len(rs.Rows), renderSorted(rs))
	}
	rs = queryRows(t, db, "SELECT P.a AS a FROM p AS P, q AS Q WHERE P.a = Q.a AND P.b = Q.b")
	if len(rs.Rows) != 2 || joinKernel(t, db, "SELECT P.a AS a FROM p AS P, q AS Q WHERE P.a = Q.a AND P.b = Q.b") != "hash-join" {
		t.Fatalf("multi-column hash join must match both (1, 23) rows only, got %d: %v", len(rs.Rows), renderSorted(rs))
	}
}

// kernelCorpus builds a db with enough rows to clear a forced-low
// parallel threshold and returns queries covering the specialized
// paths: hash join on one link and on two, indexed join, filter,
// projection and DISTINCT.
func kernelCorpus(t *testing.T) (*DB, []string) {
	t.Helper()
	db := NewDB()
	const n = 3000
	edges := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		to := ID(int64((i*7 + 3) % 997))
		if i%13 == 0 {
			to = NullCell
		}
		edges = append(edges, Row{ID(int64(i % 997)), to, ID(int64(i % 57))})
	}
	mustTable(t, db, "e", Schema{{Name: "src"}, {Name: "dst"}, {Name: "lbl"}}, edges)
	nodes := make([]Row, 0, 997)
	for i := 0; i < 997; i++ {
		nodes = append(nodes, Row{ID(int64(i)), ID(int64(i % 31))})
	}
	nt := mustTable(t, db, "node", Schema{{Name: "id"}, {Name: "name"}}, nodes)
	if err := nt.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT e.src AS src, e.dst AS dst FROM e AS e WHERE e.src < 100",
		"SELECT DISTINCT e.lbl AS lbl FROM e AS e",
		"SELECT DISTINCT CASE WHEN e.lbl < 19 THEN NULL ELSE e.lbl END AS l FROM e AS e",
		"SELECT e.src AS src, n.name AS name FROM e AS e, node AS n WHERE e.dst = n.id AND e.src < 200",
		"WITH N AS (SELECT n.id AS id, n.name AS name FROM node AS n) SELECT e.src AS src, N.name AS name FROM e AS e, N AS N WHERE e.dst = N.id AND e.lbl = N.name AND e.src < 300",
		"SELECT a.src AS src, b.dst AS dst FROM e AS a, e AS b WHERE a.dst = b.src AND a.src = 5",
		"WITH L AS (SELECT e.src AS src, e.dst AS dst, CASE WHEN e.lbl < 19 THEN 0 WHEN e.lbl < 38 THEN 1 ELSE 2 END AS lbl FROM e AS e) " +
			"SELECT DISTINCT a.lbl AS al, b.lbl AS bl FROM L AS a, L AS b WHERE a.dst = b.src AND a.src < 20",
		"SELECT e.src AS s FROM e AS e ORDER BY s DESC LIMIT 50 OFFSET 10",
		// LEFT OUTER JOIN on every kernel; e.dst is NULL on every 13th
		// edge, and those rows come out NULL-extended.
		// Index: the filtered left side is smaller than node.
		"WITH E AS (SELECT e.src AS src, e.dst AS dst FROM e AS e WHERE e.src < 200) SELECT E.src AS src, E.dst AS dst, n.name AS name FROM E AS E LEFT OUTER JOIN node AS n ON E.dst = n.id",
		// Hash on one link: the right side is a CTE.
		"WITH N AS (SELECT n.id AS id, n.name AS name FROM node AS n) SELECT e.src AS src, e.dst AS dst, N.name AS name FROM e AS e LEFT OUTER JOIN N AS N ON e.dst = N.id",
		// Hash on two links: candidates are verified on both.
		"WITH N AS (SELECT n.id AS id, n.name AS name FROM node AS n) SELECT e.src AS src, e.dst AS dst, N.name AS name FROM e AS e LEFT OUTER JOIN N AS N ON e.dst = N.id AND e.lbl = N.name",
		// Nested loop: the link is hidden in an expression.
		"WITH E AS (SELECT e.src AS src, e.dst AS dst FROM e AS e WHERE e.src < 40) SELECT E.src AS src, E.dst AS dst, n.name AS name FROM E AS E LEFT OUTER JOIN node AS n ON E.dst + 0 = n.id",
		// A residual that rejects every match of most left rows.
		"WITH E AS (SELECT e.src AS src, e.dst AS dst FROM e AS e WHERE e.src < 200) SELECT E.src AS src, E.dst AS dst, n.name AS name FROM E AS E LEFT OUTER JOIN node AS n ON E.dst = n.id AND n.name < 3",
		"WITH N AS (SELECT n.id AS id, n.name AS name FROM node AS n) SELECT e.src AS src, e.dst AS dst, N.name AS name FROM e AS e LEFT OUTER JOIN N AS N ON e.dst = N.id AND N.name > 27",
	}
	return db, queries
}

// TestParallelKernelEquivalence runs the kernel corpus with morsel
// parallelism forced off and forced on and demands the same rows in the
// same order.
func TestParallelKernelEquivalence(t *testing.T) {
	db, queries := kernelCorpus(t)
	defer SetParallelism(0, 0)
	for _, q := range queries {
		SetParallelism(1, 0) // sequential
		seq := render(queryRows(t, db, q))
		SetParallelism(4, 1) // every operator parallel
		par := render(queryRows(t, db, q))
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("query %q: sequential and parallel kernels disagree\nseq: %v\npar: %v", q, seq, par)
		}
	}
}

// joinKernel names the join operators the query ran, in order.
func joinKernel(t *testing.T, db *DB, sql string) string {
	t.Helper()
	_, stats, err := db.AnalyzeContext(context.Background(), mustParse(t, sql), Limits{})
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	var ops []string
	for _, op := range stats.Ops {
		if strings.HasSuffix(op.Kind, "join") || op.Kind == "join-on" {
			ops = append(ops, strings.TrimSpace(op.Kind+" "+op.Label))
		}
	}
	return strings.Join(ops, ", ")
}

// TestJoinKernelsAgree answers the same comma and outer joins through
// the index, hash and nested-loop kernels — an index on the link
// column present or absent, the link plain or hidden in an expression —
// with one worker and with four. Every kernel must give the same rows,
// and each kernel the same order at either worker count.
func TestJoinKernelsAgree(t *testing.T) {
	defer SetParallelism(0, 0)
	build := func(index bool) *DB {
		db := NewDB()
		var lrows, rrows []Row
		for i := 0; i < 150; i++ {
			k := ID(int64(i % 97))
			if i%11 == 0 {
				k = NullCell
			}
			lrows = append(lrows, Row{k, ID(int64(i))})
		}
		for i := 0; i < 400; i++ {
			k := ID(int64(40 + i%101))
			if i%17 == 0 {
				k = NullCell
			}
			rrows = append(rrows, Row{k, ID(int64(i % 23))})
		}
		mustTable(t, db, "l", Schema{{Name: "k"}, {Name: "a"}}, lrows)
		rt := mustTable(t, db, "r", Schema{{Name: "k"}, {Name: "b"}}, rrows)
		if index {
			if err := rt.CreateIndex("k"); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	dbs := map[bool]*DB{false: build(false), true: build(true)}
	forms := []struct{ name, sql string }{
		{"comma", "SELECT l.a AS a, r.b AS b FROM l AS l, r AS r WHERE %s"},
		{"left outer", "SELECT l.a AS a, r.b AS b FROM l AS l LEFT OUTER JOIN r AS r ON %s"},
		{"left outer residual", "SELECT l.a AS a, r.b AS b FROM l AS l LEFT OUTER JOIN r AS r ON %s AND r.b < 4"},
	}
	for _, form := range forms {
		var want []string
		kernels := map[string]bool{}
		for _, index := range []bool{true, false} {
			for _, link := range []string{"l.k = r.k", "l.k + 0 = r.k"} {
				db := dbs[index]
				q := fmt.Sprintf(form.sql, link)
				kernel := joinKernel(t, db, q)
				kernels[kernel] = true
				var rows [2][]string
				for i, workers := range []int{1, 4} {
					SetParallelism(workers, 1)
					rows[i] = render(queryRows(t, db, q))
				}
				if !reflect.DeepEqual(rows[0], rows[1]) {
					t.Errorf("%s, index %v, %s (%s): one worker and four disagree on rows or order", form.name, index, link, kernel)
				}
				got := slices.Clone(rows[0])
				sort.Strings(got)
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, index %v, %s (%s): %d rows, the index kernel gave %d", form.name, index, link, kernel, len(got), len(want))
				}
			}
		}
		if len(kernels) != 3 {
			t.Errorf("%s: want the index, hash and nested kernels, ran %v", form.name, kernels)
		}
		if strings.HasPrefix(form.name, "left outer") && !slices.Contains(want, fmt.Sprintf("%#v | %#v", ID(0), NullCell)) {
			t.Errorf("%s: l's row 0 has a NULL key and must come out NULL-extended", form.name)
		}
	}
}
