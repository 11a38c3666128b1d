package rel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Tests for the lateral FROM item, TABLE(VALUES …) AS L(…): its
// semantics over the base table it correlates to, the conjuncts and links the
// fused unpivot kernel applies itself, and its equivalence with the
// hand-written UNION ALL over the same pairs.

// pairsDB builds t — an indexed id and two (p, v) pairs with every
// NULL pattern — s, a secondary table to join values with, and k, keys
// to probe t from.
func pairsDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	ints := func(names ...string) Schema {
		s := make(Schema, len(names))
		for i, n := range names {
			s[i] = Column{Name: n}
		}
		return s
	}
	tbl := mustTable(t, db, "t", ints("id", "p0", "v0", "p1", "v1"), []Row{
		{ID(1), ID(5), ID(50), ID(6), ID(60)},
		{ID(2), ID(5), ID(51), NullCell, NullCell},
		{ID(3), NullCell, NullCell, ID(6), ID(61)},
		{ID(4), NullCell, NullCell, NullCell, NullCell},
		{ID(5), ID(7), NullCell, ID(5), ID(52)}, // a predicate without a value
	})
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	mustTable(t, db, "s", ints("lid", "elm"), []Row{{ID(50), ID(500)}, {ID(50), ID(501)}, {ID(61), ID(610)}})
	mustTable(t, db, "k", ints("id", "want"), []Row{{ID(1), ID(6)}, {ID(3), ID(6)}, {ID(5), ID(5)}, {ID(9), ID(5)}})
	return db
}

const pairsOfT = "TABLE(VALUES (T.p0, T.v0), (T.p1, T.v1)) AS L(p, v)"

// multiset renders rows order-independently.
func multiset(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func sameMultiset(a, b []Row) bool {
	return strings.Join(multiset(a), ";") == strings.Join(multiset(b), ";")
}

func TestLateralSemantics(t *testing.T) {
	db := pairsDB(t)
	n := func(v ...any) Row { // nil = NULL
		r := NullRow(len(v))
		for i, x := range v {
			if x != nil {
				r[i] = ID(int64(x.(int)))
			}
		}
		return r
	}
	for _, tc := range []struct {
		name, sql string
		want      []Row
	}{
		{"base table, every pair including the NULL ones",
			"SELECT T.id AS id, L.p AS p, L.v AS v FROM t AS T, " + pairsOfT + " WHERE T.id < 4",
			[]Row{n(1, 5, 50), n(1, 6, 60), n(2, 5, 51), n(2, nil, nil), n(3, nil, nil), n(3, 6, 61)}},
		{"base table, non-NULL predicates",
			"SELECT T.id AS id, L.p AS p, L.v AS v FROM t AS T, " + pairsOfT + " WHERE L.p IS NOT NULL",
			[]Row{n(1, 5, 50), n(1, 6, 60), n(2, 5, 51), n(3, 6, 61), n(5, 7, nil), n(5, 5, 52)}},
		{"constant entity through the index",
			"SELECT L.p AS p, L.v AS v FROM t AS T, " + pairsOfT + " WHERE T.id = 5 AND L.p IS NOT NULL",
			[]Row{n(7, nil), n(5, 52)}},
		{"L.p = <int> in the kernel",
			"SELECT T.id AS id, L.v AS v FROM t AS T, " + pairsOfT + " WHERE L.p = 5",
			[]Row{n(1, 50), n(2, 51), n(5, 52)}},
		{"L.p compared with the row it came from",
			"SELECT T.id AS id, L.v AS v FROM t AS T, " + pairsOfT + " WHERE L.p IS NOT NULL AND L.p = T.id",
			[]Row{n(5, 52)}},
		{"probe from another item, L.p = P.col",
			"SELECT P.id AS id, L.v AS v FROM k AS P, t AS T, " + pairsOfT + " WHERE T.id = P.id AND L.p IS NOT NULL AND L.p = P.want",
			[]Row{n(1, 60), n(3, 61), n(5, 52)}},
		{"literals mixed with column references",
			"SELECT T.id AS id, L.p AS p, L.v AS v FROM t AS T, TABLE(VALUES (T.p0, 100), (7, T.v1), (NULL, 1)) AS L(p, v) WHERE T.id = 1 OR T.id = 4",
			[]Row{n(1, 5, 100), n(1, 7, 60), n(1, nil, 1), n(4, nil, 100), n(4, 7, nil), n(4, nil, 1)}},
	} {
		for _, workers := range []int{1, 4} {
			SetParallelism(workers, 1)
			rs, err := query(db, tc.sql)
			SetParallelism(0, 0)
			if err != nil {
				t.Fatalf("%s: %v\n%s", tc.name, err, tc.sql)
			}
			if !sameRows(rs.Rows, tc.want) {
				t.Errorf("%s, workers=%d:\n got %v\nwant %v\n%s", tc.name, workers, rs.Rows, tc.want, tc.sql)
			}
		}
	}
}

func TestLateralErrors(t *testing.T) {
	db := pairsDB(t)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT L.p AS p FROM t AS T, TABLE(VALUES (X.p0, X.v0)) AS L(p, v)", `sql: TABLE(VALUES ...) AS L refers to unknown alias "x"`},
		{"SELECT L.p AS p FROM TABLE(VALUES (T.p0, T.v0)) AS L(p, v), t AS T", `sql: TABLE(VALUES ...) AS L refers to unknown alias "t"`},
		{"SELECT L.p AS p FROM t AS T, TABLE(VALUES (T.p0, T.v0), (T.p1)) AS L(p, v)", "sql: TABLE(VALUES ...) row 2 has 1 values, AS L names 2 columns"},
		{"SELECT L.p AS p FROM t AS T, TABLE(VALUES (T.p0, T.v0)) AS L(p)", "sql: TABLE(VALUES ...) row 1 has 2 values, AS L names 1 columns"},
		{"SELECT L.p AS p FROM t AS T, k AS K, TABLE(VALUES (T.p0, K.id)) AS L(p, v)", "sql: TABLE(VALUES ...) AS L refers to both t and k"},
		{"SELECT L.p AS p FROM t AS T, TABLE(VALUES (1, 2)) AS L(p, v)", "sql: TABLE(VALUES ...) AS L refers to no FROM item"},
		{"SELECT L.p AS p FROM t AS T, TABLE(VALUES (p0, v0)) AS L(p, v)", "sql: TABLE(VALUES ...) column p0 must be qualified"},
		{"SELECT L.p AS p FROM t AS T, TABLE(VALUES (T.p0 + 1, T.v0)) AS L(p, v)", "sql: TABLE(VALUES ...) cells must be column references or literals"},
		{"SELECT L.p AS p FROM t AS T LEFT OUTER JOIN TABLE(VALUES (T.p0, T.v0)) AS L(p, v) ON L.p = T.id", "sql: TABLE(VALUES ...) cannot be the right side of a JOIN"},
		{"SELECT L.p AS p FROM t AS T, TABLE(VALUES (T.p0, T.v0)) AS L", `sql: expected "("`},
		{"SELECT L.p AS p FROM t AS T, TABLE(SELECT 1) AS L(p)", "sql: expected VALUES"},
	} {
		_, err := ParseQuery(tc.sql)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || !strings.Contains(err.Error(), "(near offset ") {
			t.Errorf("%s:\n got %v\nwant %s ... (near offset N)", tc.sql, err, tc.want)
		}
	}
	// A cell naming a column the item does not have fails like any
	// other unknown column, when the query runs.
	if _, err := query(db, "SELECT L.p AS p FROM t AS T, TABLE(VALUES (T.nope, T.v0)) AS L(p, v)"); err == nil || !strings.Contains(err.Error(), "unknown column T.nope") {
		t.Errorf("unknown cell column: got %v", err)
	}
	// TABLE and VALUES are still ordinary identifiers.
	db2 := NewDB()
	mustTable(t, db2, "table", Schema{{Name: "values"}}, []Row{{ID(3)}})
	if rs, err := query(db2, "SELECT table.values AS values FROM table AS table WHERE table.values = 3"); err != nil || len(rs.Rows) != 1 {
		t.Errorf("a table named table: %v, %v", rs, err)
	}
}

// unpivotOps returns the profile's unpivot operators and the kinds of
// the others.
func unpivotOps(st *ExecStats) (ups []OpStat, others []string) {
	for _, op := range st.Ops {
		if op.Kind == "unpivot" {
			ups = append(ups, op)
		} else {
			others = append(others, op.Kind)
		}
	}
	return ups, others
}

// TestLateralPushdownAndProfile: the conjuncts and links over lateral
// columns run inside the one fused operator — the profile shows no
// filter and no second access of the table — and the operator line
// carries the cells it read.
func TestLateralPushdownAndProfile(t *testing.T) {
	db := pairsDB(t)
	analyze := func(sql string) *ExecStats {
		t.Helper()
		_, st, err := db.AnalyzeContext(context.Background(), mustParse(t, sql), Limits{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return st
	}
	for _, tc := range []struct {
		sql, label string
		in, out    int64
		cols       int
	}{
		{"SELECT T.id AS id, L.v AS v FROM t AS T, " + pairsOfT + " WHERE L.p = 5", "scan t", 5, 3, 5},
		{"SELECT L.v AS v FROM t AS T, " + pairsOfT + " WHERE T.id = 1 AND L.p IS NOT NULL", "index-scan t.id", 1, 2, 5},
		{"SELECT P.id AS id, L.v AS v FROM k AS P, t AS T, " + pairsOfT + " WHERE T.id = P.id AND L.p IS NOT NULL AND L.p = P.want", "index-join t.id", 3, 3, 5},
		{"SELECT L.v AS v FROM t AS T, TABLE(VALUES (T.p0, T.v0)) AS L(p, v) WHERE L.p IS NOT NULL", "scan t", 5, 3, 2},
	} {
		ups, others := unpivotOps(analyze(tc.sql))
		if len(ups) != 1 {
			t.Fatalf("%s: %d unpivot operators, want 1", tc.sql, len(ups))
		}
		up := ups[0]
		if up.Label != tc.label || up.RowsIn != tc.in || up.RowsOut != tc.out || up.ColsRead != tc.cols || up.ColsTotal != 5 {
			t.Errorf("%s: got %q, want label %q in=%d out=%d cols=%d/5", tc.sql, up, tc.label, tc.in, tc.out, tc.cols)
		}
		for _, kind := range others {
			if kind != "project" && kind != "scan" { // "scan" is k, the probe side
				t.Errorf("%s: unexpected %s operator beside the unpivot", tc.sql, kind)
			}
		}
	}
	line := unpivotOpsLine(t, analyze("SELECT L.v AS v FROM t AS T, "+pairsOfT+" WHERE T.id = 1 AND L.p IS NOT NULL"))
	for _, want := range []string{"unpivot index-scan t.id: in=1 out=2", "cols=5/5", "pairs=2", "workers=1"} {
		if !strings.Contains(line, want) {
			t.Errorf("operator line %q lacks %q", line, want)
		}
	}
}

func unpivotOpsLine(t *testing.T, st *ExecStats) string {
	t.Helper()
	ups, _ := unpivotOps(st)
	if len(ups) != 1 {
		t.Fatalf("%d unpivot operators, want 1", len(ups))
	}
	return ups[0].String()
}

// TestLateralLimitStopsEarly: LIMIT and OFFSET over a core whose only
// unit is a fused unpivot keep the right rows, sequential and parallel.
func TestLateralLimitStopsEarly(t *testing.T) {
	defer SetParallelism(0, 0)
	db := narrowDB(t, rand.New(rand.NewSource(3)))
	sql := "SELECT T.c1 AS c1, L.p AS p, L.v AS v FROM w AS T, " + pairsOfW + " WHERE L.p IS NOT NULL AND T.c1 >= 100"
	for _, workers := range []int{1, 4} {
		SetParallelism(workers, 1)
		all, err := query(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := query(db, sql+" LIMIT 7 OFFSET 2")
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(rs.Rows, all.Rows[2:9]) {
			t.Fatalf("workers=%d: LIMIT 7 OFFSET 2 is not rows 2..8 of the full result", workers)
		}
	}
}

// pairsOfW flips w's seven (c2,c3) … (c14,c15) pairs, which include the
// string column c12 and the float column c13.
var pairsOfW = func() string {
	var b strings.Builder
	b.WriteString("TABLE(VALUES ")
	for c := 2; c < 16; c += 2 {
		if c > 2 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(T.c%d, T.c%d)", c, c+1)
	}
	return b.String() + ") AS L(p, v)"
}()

// TestLateralUnionEquivalence: the lateral spelling of a flip over the
// 16-column sparse table (exceptions, tombstones, sealed and raw
// chunks) against the k-arm UNION ALL it replaces, as multisets —
// the union is column-major, the lateral row-major.
func TestLateralUnionEquivalence(t *testing.T) {
	defer SetParallelism(0, 0)
	r := rand.New(rand.NewSource(29))
	db := narrowDB(t, r)
	// Each shape is a select list, a FROM prefix and a WHERE generator,
	// with {p} and {v} standing for the pair's columns: L.p / L.v in the
	// lateral spelling, T.c<i> / T.c<i+1> in arm i of the union.
	n := func(max int) string { return itoa(r.Intn(max)) }
	shapes := []struct {
		name, sel, from string
		where           func() string
	}{
		{"scan, entity unbound", "T.c1 AS e, {p} AS p, {v} AS v", "", func() string { return "{p} IS NOT NULL" }},
		{"scan with table filters", "T.c1 AS e, {p} AS p, {v} AS v", "", func() string {
			lo := r.Intn(4000)
			return fmt.Sprintf("T.c1 >= %d AND T.c1 < %d AND {p} IS NOT NULL", lo, lo+r.Intn(1500))
		}},
		{"scan, pred = constant", "T.c1 AS e, {v} AS v", "", func() string { return "{p} IS NOT NULL AND {p} = " + n(100) }},
		{"scan, pred = entity column", "T.c1 AS e, {v} AS v", "", func() string { return "{p} IS NOT NULL AND {p} = T.c0" }},
		{"scan, residual over both", "T.c1 AS e, {p} AS p", "", func() string { return "{p} IS NOT NULL AND ({v} IS NULL OR {v} != T.c0)" }},
		{"index scan", "T.c1 AS e, {p} AS p, {v} AS v", "", func() string { return "T.c0 = " + n(97) + " AND {p} IS NOT NULL" }},
		{"index join", "P.k AS k, P.n AS n, {p} AS p, {v} AS v", "v AS P, ", func() string { return "T.c0 = P.k AND {p} IS NOT NULL AND P.n < " + n(50) }},
		{"index join, pred = probe column", "P.k AS k, T.c1 AS e, {v} AS v", "v AS P, ", func() string { return "T.c0 = P.k AND {p} IS NOT NULL AND {p} = P.n" }},
		{"index join with table filters", "P.k AS k, {p} AS p", "v AS P, ", func() string {
			return "T.c0 = P.k AND {p} IS NOT NULL AND (T.c5 < 60 OR T.c5 IS NULL) AND T.c1 > " + n(3000)
		}},
		{"every pair, NULL ones included", "T.c1 AS e, {p} AS p, {v} AS v", "", func() string { return "T.c1 < " + itoa(1500+r.Intn(3000)) }},
	}
	run := func(sql string, workers int) []Row {
		t.Helper()
		SetParallelism(workers, 1)
		rs, err := query(db, sql)
		if err != nil {
			t.Fatalf("%v\n%s", err, sql)
		}
		return rs.Rows
	}
	for _, shape := range shapes {
		nonEmpty := false
		for iter := 0; iter < 3; iter++ {
			where := shape.where()
			fill := func(s, p, v string) string {
				return strings.NewReplacer("{p}", p, "{v}", v).Replace(s)
			}
			lateral := "SELECT " + fill(shape.sel, "L.p", "L.v") + " FROM " + shape.from + "w AS T, " + pairsOfW + " WHERE " + fill(where, "L.p", "L.v")
			var arms []string
			for c := 2; c < 16; c += 2 {
				p, v := fmt.Sprintf("T.c%d", c), fmt.Sprintf("T.c%d", c+1)
				arms = append(arms, "SELECT "+fill(shape.sel, p, v)+" FROM "+shape.from+"w AS T WHERE "+fill(where, p, v))
			}
			union := strings.Join(arms, " UNION ALL ")
			want := run(union, 1)
			nonEmpty = nonEmpty || len(want) > 0
			for _, workers := range []int{1, 4} {
				if got := run(lateral, workers); !sameMultiset(got, want) {
					t.Fatalf("%s, workers=%d: the lateral spelling returned %d rows, the union %d, or they differ\nlateral: %s\nunion:   %s",
						shape.name, workers, len(got), len(want), lateral, union)
				}
			}
			if a, b := run(lateral, 1), run(lateral, 4); !sameRows(a, b) {
				t.Fatalf("%s: row order differs between 1 and 4 workers\n%s", shape.name, lateral)
			}
		}
		if !nonEmpty {
			t.Errorf("%s: every generated query came back empty; the shape tests nothing", shape.name)
		}
	}
}

// TestFaultInjectionUnpivot: every abort mode at the unpivot's own
// checkpoint, on each access path it is fused into, sequentially and
// inside morsel workers; the
// typed error surfaces, no goroutine is left behind and the DB still
// answers.
func TestFaultInjectionUnpivot(t *testing.T) {
	defer SetParallelism(0, 0)
	db := narrowDB(t, rand.New(rand.NewSource(17)))
	queries := map[string]string{
		"scan":       "SELECT T.c1 AS c1, L.p AS p FROM w AS T, " + pairsOfW + " WHERE L.p IS NOT NULL",
		"index-scan": "SELECT T.c1 AS c1, L.p AS p FROM w AS T, " + pairsOfW + " WHERE T.c0 = 11 AND L.p IS NOT NULL",
		"index-join": "SELECT P.k AS k, L.p AS p FROM v AS P, w AS T, " + pairsOfW + " WHERE T.c0 = P.k AND L.p IS NOT NULL",
	}
	before := runtime.NumGoroutine()
	for name, sql := range queries {
		q := mustParse(t, sql)
		want, err := db.Exec(q)
		if err != nil || len(want.Rows) == 0 {
			t.Fatalf("%s: reference run: %d rows, %v", name, len(want.Rows), err)
		}
		for _, workers := range []int{1, 4} {
			SetParallelism(workers, 1)
			for _, m := range []struct {
				mode FaultMode
				want error
			}{
				{FaultCancel, ErrCanceled},
				{FaultDeadline, ErrDeadlineExceeded},
				{FaultBudget, ErrBudgetExceeded},
				{FaultPanic, nil},
			} {
				// nth=1 is an entry flush; 3 lands inside the loop (and,
				// with workers, on a spawned goroutine) wherever the
				// operator makes that many visits.
				for _, nth := range []int64{1, 3} {
					InjectFault(CkUnpivot, m.mode, nth)
					_, err := db.ExecContext(context.Background(), q, Limits{})
					fired := FaultFired()
					ClearFault()
					if !fired {
						if nth == 1 {
							t.Fatalf("%s, workers=%d: checkpoint %v never reached", name, workers, CkUnpivot)
						}
						continue
					}
					var pe *PanicError
					if m.want == nil && (!errors.As(err, &pe) || pe.V != faultPanicMsg) {
						t.Fatalf("%s, workers=%d: want the injected *PanicError, got %v", name, workers, err)
					}
					if m.want != nil && !errors.Is(err, m.want) {
						t.Fatalf("%s, workers=%d, visit %d: want %v, got %v", name, workers, nth, m.want, err)
					}
				}
			}
			if got, err := db.Exec(q); err != nil || !sameRows(got.Rows, want.Rows) {
				t.Fatalf("%s, workers=%d: after the aborts the query returns %v, not the reference rows", name, workers, err)
			}
		}
	}
	SetParallelism(0, 0)
	waitForGoroutines(t, before)
}

// TestUnpivotBudgets: the row budget counts the rows the unpivot
// produces and the memory budget the narrow rows it allocates.
func TestUnpivotBudgets(t *testing.T) {
	db := narrowDB(t, rand.New(rand.NewSource(17)))
	q := mustParse(t, "WITH F AS (SELECT T.c1 AS e, L.p AS p FROM w AS T, "+pairsOfW+" WHERE L.p IS NOT NULL) SELECT F.e AS e FROM F AS F LIMIT 1")
	_, st, err := db.AnalyzeContext(context.Background(), q, Limits{MaxRows: 1 << 30, MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ups, _ := unpivotOps(st)
	produced := ups[0].RowsOut
	if produced < 1000 {
		t.Fatalf("the flip produced only %d rows", produced)
	}
	// The flip's rows, their projection and the one result row.
	if want := 2*produced + 1; st.BudgetRowsCharged != want {
		t.Errorf("rows charged: %d, want %d", st.BudgetRowsCharged, want)
	}
	var be *BudgetError
	if _, err := db.ExecContext(context.Background(), q, Limits{MaxRows: produced / 2}); !errors.As(err, &be) || be.Budget != "rows" {
		t.Errorf("half the flip's rows must trip the row budget, got %v", err)
	}
	be = nil
	if _, err := db.ExecContext(context.Background(), q, Limits{MaxBytes: produced * cellBytes}); !errors.As(err, &be) || be.Budget != "memory" {
		t.Errorf("one cell per produced row must trip the memory budget (rows are 3 wide), got %v", err)
	}
}

// TestUnpivotAllocatesPerRowEmitted: flipping a DPH-shaped table — an
// indexed entry and 32 sparse (pred, val) pairs, 66 columns — probes
// 2000 of its 4000 entities, which hold two pairs each. What the probe allocates
// must follow the 4000 three-wide rows it emits; materializing the
// 66-value row per match, which a rewrite into plain column reads would
// do, costs 40x more and fails the ceiling.
func TestUnpivotAllocatesPerRowEmitted(t *testing.T) {
	SetParallelism(1, 0)
	defer SetParallelism(0, 0)
	db := NewDB()
	schema := Schema{{Name: "entry"}, {Name: "spill"}}
	var pairs []string
	for c := 0; c < 32; c++ {
		schema = append(schema, Column{Name: "pred" + itoa(c)}, Column{Name: "val" + itoa(c)})
		pairs = append(pairs, fmt.Sprintf("(T.pred%d, T.val%d)", c, c))
	}
	dph := mustTable(t, db, "dph", schema, nil)
	if err := dph.CreateIndex("entry"); err != nil {
		t.Fatal(err)
	}
	const entities = 2000
	keys := make([]Row, entities)
	for i := 0; i < 2*entities; i++ {
		r := NullRow(len(schema))
		r[0] = ID(int64(i))
		for _, c := range []int{i % 32, (i + 11) % 32} {
			r[2+2*c], r[3+2*c] = ID(int64(100+c)), ID(int64(i))
		}
		if err := dph.Insert(r); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			keys[i/2] = Row{ID(int64(i))}
		}
	}
	mustTable(t, db, "keys", Schema{{Name: "e"}}, keys)
	q := mustParse(t, "SELECT P.e AS e, L.pred AS pred, L.val AS val FROM keys AS P, dph AS T, TABLE(VALUES "+strings.Join(pairs, ", ")+") AS L(pred, val) WHERE T.entry = P.e AND L.pred IS NOT NULL")
	run := func() int {
		rs, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.Rows)
	}
	if n := run(); n != 2*entities {
		t.Fatalf("%d rows, want %d", n, 2*entities)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / runs / (2 * entities)
	// Measured 151 B per emitted row: the 4-value join row and its
	// 3-value projection, each copied out once into an exact slab, and
	// the probe side's scan (555 B with a Row header per row in arena
	// blocks). One 66-value row per match alone would add 1320 B per
	// emitted row.
	t.Logf("%.0f B allocated per emitted row", perRow)
	if perRow > 700 {
		t.Errorf("%.0f B allocated per emitted row, ceiling 700: the flip is materializing wide rows", perRow)
	}
}

// TestJoinLayoutFollowsFrom: a comma join writes its cells in FROM
// order whichever unit is its left side. With k first, k is the
// smaller unit and the left side anyway; with t and its lateral first,
// k is still the smaller, so the join starts from unit 1 and probes t's
// index into the fused unpivot, which must still put t's and L's cells
// before k's. Both orders give the same rows.
func TestJoinLayoutFollowsFrom(t *testing.T) {
	db := pairsDB(t)
	const items = "SELECT T.id AS id, L.p AS p, L.v AS v, K.want AS want FROM "
	lateralFirst := queryRows(t, db, items+"t AS T, "+pairsOfT+", k AS K WHERE T.id = K.id")
	keysFirst := queryRows(t, db, items+"k AS K, t AS T, "+pairsOfT+" WHERE T.id = K.id")
	if len(keysFirst.Rows) == 0 || !sameMultiset(lateralFirst.Rows, keysFirst.Rows) {
		t.Errorf("t, L, k gives %v; k, t, L gives %v", multiset(lateralFirst.Rows), multiset(keysFirst.Rows))
	}
	_, stats, err := db.AnalyzeContext(context.Background(), mustParse(t, items+"t AS T, "+pairsOfT+", k AS K WHERE T.id = K.id"), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(stats.Ops, func(op OpStat) bool { return op.Kind == "unpivot" && op.Label == "index-join t.id" }) {
		t.Errorf("want k probing t's index into the unpivot, ran %v", stats.Ops)
	}
}
