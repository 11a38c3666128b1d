package rel

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// Tests for EXPLAIN ANALYZE at the executor level (profile.go), zone-map
// pruning, and LIMIT/OFFSET equivalence between the pushdown and
// non-pushdown paths.

// TestAnalyzeContextProfile: a profiled execution must return the same
// rows as ExecContext plus a populated profile — per-CTE actuals, a
// scan operator with chunk-skip counts, totals matching the result.
func TestAnalyzeContextProfile(t *testing.T) {
	db := zoneDB(t)
	sql := "WITH C1 AS (SELECT z.v AS v FROM z AS z WHERE z.v = 50) SELECT c.v AS v FROM C1 AS c WHERE c.v > 10"
	q, err := ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.ExecContext(context.Background(), q, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rs, stats, err := db.AnalyzeContext(context.Background(), q, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Rows, plain.Rows) {
		t.Fatalf("profiled execution changed results: %d vs %d rows", len(rs.Rows), len(plain.Rows))
	}
	if stats == nil || len(stats.Ops) == 0 {
		t.Fatal("no operators recorded")
	}
	if got := stats.CTERows["c1"]; got != 1 {
		t.Fatalf("CTE actual cardinality: want 1, got %d (map %v)", got, stats.CTERows)
	}
	if stats.Rows != int64(len(rs.Rows)) || stats.Rows != 1 {
		t.Fatalf("stats.Rows = %d, result rows = %d (want 1)", stats.Rows, len(rs.Rows))
	}
	if stats.ElapsedNs <= 0 {
		t.Fatal("total elapsed time not recorded")
	}
	var scan *OpStat
	for i := range stats.Ops {
		if stats.Ops[i].Kind == "scan" {
			scan = &stats.Ops[i]
		}
	}
	if scan == nil {
		t.Fatalf("no scan operator in profile: %v", stats.Ops)
	}
	// 8192 rows = 8 chunks; v = 50 can only be in chunk 0.
	if scan.Chunks != 8 || scan.ChunksSkipped != 7 {
		t.Fatalf("scan chunks=%d skipped=%d, want 8/7", scan.Chunks, scan.ChunksSkipped)
	}
	if scan.RowsIn != 8192 || scan.RowsOut != 1 {
		t.Fatalf("scan rows in=%d out=%d, want 8192/1", scan.RowsIn, scan.RowsOut)
	}
	if scan.Scope != "c1" {
		t.Fatalf("scan scope = %q, want c1", scan.Scope)
	}
	// The core names z.v alone, of z's four columns.
	if scan.ColsRead != 1 || scan.ColsTotal != 4 {
		t.Fatalf("scan read %d of %d columns, want 1 of 4", scan.ColsRead, scan.ColsTotal)
	}
	if out := stats.String(); !strings.Contains(out, "scan z") || !strings.Contains(out, " cols=1/4 ") {
		t.Fatalf("stats rendering lacks the scan line or its width:\n%s", out)
	}
}

// TestAnalyzeReportsColumnsRead: every operator that turns base-table
// cells into rows — scan, index scan, index join, and JOIN … ON over an
// index — reports how many of the table's columns it gathered, and
// operators over intermediate rows report none.
func TestAnalyzeReportsColumnsRead(t *testing.T) {
	db := NewDB()
	big := mustTable(t, db, "big", Schema{{Name: "k"}, {Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}, nil)
	for i := 0; i < 500; i++ {
		if err := big.Insert(Row{ID(int64(i % 50)), ID(int64(i)), ID(int64(i % 3)), ID(7), NullCell}); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	mustTable(t, db, "small", Schema{{Name: "k"}, {Name: "n"}}, []Row{{ID(3), ID(1)}, {ID(7), ID(2)}})
	for _, tc := range []struct {
		sql, kind, label string
		read, total      int
	}{
		{"SELECT T.a AS a FROM big AS T WHERE T.b = 1", "scan", "big", 2, 5},
		{"SELECT T.k AS k, T.a AS a, T.b AS b, T.c AS c, T.d AS d FROM big AS T WHERE T.b = 1", "scan", "big", 5, 5},
		{"SELECT T.a AS a FROM big AS T WHERE T.k = 7 AND T.b = 1", "index-scan", "big.k", 3, 5},
		{"SELECT S.n AS n, T.a AS a FROM small AS S, big AS T WHERE T.k = S.k", "index-join", "big.k", 2, 5},
		{"SELECT S.n AS n, T.c AS c FROM small AS S LEFT OUTER JOIN big AS T ON S.k = T.k AND T.b = 0", "join-on", "index big.k", 3, 5},
	} {
		_, stats, err := db.AnalyzeContext(context.Background(), mustParse(t, tc.sql), Limits{})
		if err != nil {
			t.Fatalf("%q: %v", tc.sql, err)
		}
		found := false
		for _, op := range stats.Ops {
			switch {
			case op.Kind == tc.kind && op.Label == tc.label:
				found = true
				if op.ColsRead != tc.read || op.ColsTotal != tc.total {
					t.Fatalf("%q: %s read %d of %d columns, want %d of %d", tc.sql, op.Kind, op.ColsRead, op.ColsTotal, tc.read, tc.total)
				}
			case op.Kind == "project" || op.Kind == "filter" || op.Kind == "hash-join":
				if op.ColsTotal != 0 || strings.Contains(op.String(), "cols=") {
					t.Fatalf("%q: %s reads no base table but reports a width: %s", tc.sql, op.Kind, op)
				}
			}
		}
		if !found {
			t.Fatalf("%q: no %s %s operator:\n%s", tc.sql, tc.kind, tc.label, stats)
		}
	}
}

// TestAnalyzeCapturesBudgets: the profile must report the totals
// charged against row/memory budgets, and must be returned (partial)
// even when the budget aborts the query.
func TestAnalyzeCapturesBudgets(t *testing.T) {
	db := zoneDB(t)
	q, err := ParseQuery("SELECT z.v AS v FROM z AS z WHERE z.v < 100")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := db.AnalyzeContext(context.Background(), q, Limits{MaxRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BudgetRowsCharged <= 0 {
		t.Fatalf("BudgetRowsCharged = %d, want > 0 under a row budget", stats.BudgetRowsCharged)
	}
	_, stats, err = db.AnalyzeContext(context.Background(), q, Limits{MaxRows: 10})
	if err == nil {
		t.Fatal("10-row budget must trip on a 100-row scan")
	}
	if stats == nil || stats.BudgetRowsCharged <= 10 {
		t.Fatalf("aborted query must still report charged budget, got %+v", stats)
	}
}

// TestExecContextRecordsNothing: the unprofiled path must not
// accumulate operator stats (the instrumentation contract).
func TestExecContextRecordsNothing(t *testing.T) {
	db := peopleDB(t)
	q, err := ParseQuery("SELECT p.name AS name FROM people_ids AS p WHERE p.age > 26")
	if err != nil {
		t.Fatal(err)
	}
	// Twice, to catch accidental global state.
	for i := 0; i < 2; i++ {
		if _, err := db.ExecContext(context.Background(), q, Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	_, stats, err := db.AnalyzeContext(context.Background(), q, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range stats.Ops {
		if op.ElapsedNs < 0 {
			t.Fatalf("negative elapsed in %+v", op)
		}
	}
}

// TestZoneMapStillPrunesCleanChunks: an out-of-range equality must
// skip every chunk on the zone map alone.
func TestZoneMapStillPrunesCleanChunks(t *testing.T) {
	db := zoneDB(t) // no exceptions anywhere
	q, err := ParseQuery("SELECT z.v AS v FROM z AS z WHERE z.v = 100000")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := db.AnalyzeContext(context.Background(), q, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range stats.Ops {
		if op.Kind == "scan" && op.ChunksSkipped != op.Chunks {
			t.Fatalf("out-of-range predicate must skip all %d chunks, skipped %d", op.Chunks, op.ChunksSkipped)
		}
	}
}

// TestLimitOffsetPathEquivalence (regression): LIMIT 0, OFFSET past
// the result set, and OFFSET without LIMIT must agree between the
// pushdown path (plain SELECT, trimmed inside evalCore) and the
// non-pushdown paths (DISTINCT and ORDER BY force full
// materialization), and both must equal the manually trimmed full
// result.
func TestLimitOffsetPathEquivalence(t *testing.T) {
	db := zoneDB(t)
	base := "SELECT z.v AS v FROM z AS z WHERE z.v < 100"
	full := queryRows(t, db, base) // 100 rows in storage (= ascending) order
	cases := []struct{ limit, offset int }{
		{0, 0},    // LIMIT 0
		{0, 50},   // LIMIT 0 with OFFSET
		{10, 0},   // plain LIMIT
		{10, 95},  // LIMIT straddling the end
		{10, 100}, // OFFSET exactly past the result set
		{10, 500}, // OFFSET far past
		{-1, 40},  // OFFSET without LIMIT
		{-1, 100}, // OFFSET without LIMIT, past the end
		{200, 0},  // LIMIT beyond the result set
	}
	for _, c := range cases {
		suffix := ""
		if c.limit >= 0 {
			suffix += " LIMIT " + itoa(c.limit)
		}
		if c.offset > 0 {
			suffix += " OFFSET " + itoa(c.offset)
		}
		want := trim(full.Rows, c.limit, c.offset)
		pushdown := queryRows(t, db, base+suffix)
		distinct := queryRows(t, db, "SELECT DISTINCT z.v AS v FROM z AS z WHERE z.v < 100"+suffix)
		ordered := queryRows(t, db, base+" ORDER BY v"+suffix)
		if !sameRows(pushdown.Rows, want) {
			t.Fatalf("limit=%d offset=%d: pushdown %v != manual trim %v", c.limit, c.offset, pushdown.Rows, want)
		}
		if !sameRows(distinct.Rows, want) {
			t.Fatalf("limit=%d offset=%d: DISTINCT path %v != pushdown/manual %v", c.limit, c.offset, distinct.Rows, want)
		}
		if !sameRows(ordered.Rows, want) {
			t.Fatalf("limit=%d offset=%d: ORDER BY path %v != pushdown/manual %v", c.limit, c.offset, ordered.Rows, want)
		}
	}
}

// trim applies LIMIT/OFFSET semantics (limit < 0 = none) to rows.
func trim(rows []Row, limit, offset int) []Row {
	if offset >= len(rows) {
		return []Row{}
	}
	rows = rows[offset:]
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
