package rel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Governance tests: typed abort errors, budget accounting, fault
// injection at named checkpoints (including inside morsel workers),
// panic containment, and DB-usable-after-abort. None of these use
// timing-dependent deadlines — contexts are pre-canceled or already
// expired, and mid-execution aborts go through the fault harness — so
// they are deterministic under -race and arbitrary scheduling.

// govQuery joins, filters, projects and sorts, touching most
// checkpoint sites in one statement.
const govQuery = "SELECT p.name AS pname, c.name AS cname FROM people_ids AS p, city_ids AS c WHERE p.city = c.id AND p.age > 20 ORDER BY pname"

func mustParse(t *testing.T, sql string) *Query {
	t.Helper()
	q, err := ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// checkUsable asserts the DB still answers queries correctly.
func checkUsable(t *testing.T, db *DB) {
	t.Helper()
	rs, err := query(db, govQuery)
	if err != nil {
		t.Fatalf("follow-up query after abort: %v", err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("follow-up query after abort: want 3 rows, got %d", len(rs.Rows))
	}
}

func TestExecContextCanceled(t *testing.T) {
	db := peopleDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecContext(ctx, mustParse(t, govQuery), Limits{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	checkUsable(t, db)
}

func TestExecContextExpiredDeadline(t *testing.T) {
	db := peopleDB(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	_, err := db.ExecContext(ctx, mustParse(t, govQuery), Limits{})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	checkUsable(t, db)
}

func TestRowBudget(t *testing.T) {
	db := peopleDB(t)
	_, err := db.ExecContext(context.Background(), mustParse(t, govQuery), Limits{MaxRows: 2})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("BudgetError must match ErrBudgetExceeded, got %v", err)
	}
	if be.Budget != "rows" || be.Used <= be.Limit {
		t.Fatalf("bad budget report: %+v", be)
	}
	if !strings.Contains(be.Error(), "over") {
		t.Fatalf("error should report overage: %q", be.Error())
	}
	checkUsable(t, db)
}

func TestMemoryBudget(t *testing.T) {
	db := peopleDB(t)
	_, err := db.ExecContext(context.Background(), mustParse(t, govQuery), Limits{MaxBytes: 64})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Budget != "memory" {
		t.Fatalf("want memory budget, got %+v", be)
	}
	checkUsable(t, db)
}

func TestUnlimitedByDefault(t *testing.T) {
	db := peopleDB(t)
	rs, err := db.ExecContext(context.Background(), mustParse(t, govQuery), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rs.Rows))
	}
}

// TestFaultInjectionSites forces each fault mode at several distinct
// checkpoints — hash build, hash probe (a morsel worker), projection
// (a morsel worker), ORDER BY, filter — and asserts the typed error
// surfaces and the DB remains usable.
func TestFaultInjectionSites(t *testing.T) {
	db := peopleDB(t)
	q := mustParse(t, govQuery)
	sites := []CheckSite{CkHashBuild, CkHashProbe, CkProject, CkOrderBy, CkFilter}
	modes := []struct {
		mode FaultMode
		want error
	}{
		{FaultCancel, ErrCanceled},
		{FaultDeadline, ErrDeadlineExceeded},
		{FaultBudget, ErrBudgetExceeded},
	}
	for _, site := range sites {
		for _, m := range modes {
			t.Run(site.String()+"/"+m.want.Error(), func(t *testing.T) {
				InjectFault(site, m.mode, 1)
				defer ClearFault()
				_, err := db.ExecContext(context.Background(), q, Limits{})
				if !errors.Is(err, m.want) {
					t.Fatalf("site %v mode %v: want %v, got %v", site, m.mode, m.want, err)
				}
				if !FaultFired() {
					t.Fatalf("site %v never reached", site)
				}
				ClearFault()
				checkUsable(t, db)
			})
		}
	}
}

// TestFaultInsideMorselWorker pins parallelism on (every loop fans
// out) and injects deep enough that the failing checkpoint runs on a
// spawned worker goroutine, not the coordinating one.
func TestFaultInsideMorselWorker(t *testing.T) {
	SetParallelism(4, 1)
	defer SetParallelism(0, 0)
	db := peopleDB(t)
	q := mustParse(t, govQuery)

	before := runtime.NumGoroutine()
	for _, m := range []struct {
		mode FaultMode
		want error
	}{
		{FaultCancel, ErrCanceled},
		{FaultBudget, ErrBudgetExceeded},
	} {
		// nth=2: the first visit to CkHashProbe is another worker's
		// entry flush, so the fault lands mid-fan-out.
		InjectFault(CkHashProbe, m.mode, 2)
		_, err := db.ExecContext(context.Background(), q, Limits{})
		ClearFault()
		if !errors.Is(err, m.want) {
			t.Fatalf("mode %v: want %v, got %v", m.mode, m.want, err)
		}
		checkUsable(t, db)
	}
	waitForGoroutines(t, before)
}

// TestFaultPanicContained injects a panic at a worker checkpoint and in
// sequential code, asserting it converts to *PanicError, no goroutine
// leaks, and the DB still works.
func TestFaultPanicContained(t *testing.T) {
	SetParallelism(4, 1)
	defer SetParallelism(0, 0)
	db := peopleDB(t)
	q := mustParse(t, govQuery)
	before := runtime.NumGoroutine()
	for _, site := range []CheckSite{CkHashProbe, CkOrderBy, CkHashBuild} {
		InjectFault(site, FaultPanic, 1)
		_, err := db.ExecContext(context.Background(), q, Limits{})
		ClearFault()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("site %v: want *PanicError, got %v", site, err)
		}
		if pe.V != faultPanicMsg {
			t.Fatalf("site %v: wrong panic value %v", site, pe.V)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("site %v: no stack captured", site)
		}
		checkUsable(t, db)
	}
	waitForGoroutines(t, before)
}

// TestPanicInCompiledExpr panics inside a registered scalar function —
// the compiled-expression closure path — under both sequential and
// parallel projection.
func TestPanicInCompiledExpr(t *testing.T) {
	db := peopleDB(t)
	db.RegisterFunc("boom", func(args []Value) (Value, error) { panic("boom function") })
	q := mustParse(t, "SELECT CASE WHEN boom(p.age) = 1 THEN p.age END AS b FROM people_ids AS p")
	for _, workers := range []int{1, 4} {
		SetParallelism(workers, 1)
		_, err := db.ExecContext(context.Background(), q, Limits{})
		SetParallelism(0, 0)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", workers, err)
		}
		checkUsable(t, db)
	}
}

// TestAbortEquivalenceParallelSequential asserts the same injected
// fault yields the same typed error whether the executor runs
// sequentially or fanned out.
func TestAbortEquivalenceParallelSequential(t *testing.T) {
	db := peopleDB(t)
	q := mustParse(t, govQuery)
	for _, site := range []CheckSite{CkFilter, CkHashBuild, CkProject} {
		var errs [2]error
		for i, workers := range []int{1, 4} {
			SetParallelism(workers, 1)
			InjectFault(site, FaultCancel, 1)
			_, errs[i] = db.ExecContext(context.Background(), q, Limits{})
			ClearFault()
			SetParallelism(0, 0)
		}
		if !errors.Is(errs[0], ErrCanceled) || !errors.Is(errs[1], ErrCanceled) {
			t.Fatalf("site %v: sequential err %v vs parallel err %v", site, errs[0], errs[1])
		}
	}
	checkUsable(t, db)
}

// TestBudgetTripInArena drives the memory budget through the bytes a
// parallel projection's workers charge per emitted row, with a budget
// smaller than one row.
func TestBudgetTripInArena(t *testing.T) {
	SetParallelism(4, 1)
	defer SetParallelism(0, 0)
	db := peopleDB(t)
	q := mustParse(t, "SELECT p.name AS pname, c.name AS cname FROM people_ids AS p, city_ids AS c WHERE p.city = c.id")
	_, err := db.ExecContext(context.Background(), q, Limits{MaxBytes: 8})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError from arena growth, got %v", err)
	}
	if be.Budget != "memory" {
		t.Fatalf("want memory budget, got %+v", be)
	}
	checkUsable(t, db)
}

// TestMemoryBudgetFollowsReadWidth: a row is charged its width, and a
// scan's rows carry the columns its core names. Five
// columns of a 66-column sparse table fit a budget that the full width
// — which every query used to gather — overruns; a budget below the
// five columns still trips, with the typed error.
func TestMemoryBudgetFollowsReadWidth(t *testing.T) {
	db := NewDB()
	schema := make(Schema, 66)
	for i := range schema {
		schema[i] = Column{Name: "c" + itoa(i)}
	}
	wide := mustTable(t, db, "wide", schema, nil)
	const rows = 2000
	for i := 0; i < rows; i++ {
		r := NullRow(len(schema))
		r[0] = ID(int64(i))
		for c := 1 + i%7; c < len(r); c += 7 {
			r[c] = ID(int64(c))
		}
		if err := wide.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	five := mustParse(t, "SELECT T.c0 AS c0, T.c3 AS c3, T.c17 AS c17, T.c40 AS c40, T.c65 AS c65 FROM wide AS T WHERE T.c0 >= 0")
	every := make([]string, len(schema))
	for i, c := range schema {
		every[i] = "T." + c.Name + " AS " + c.Name
	}
	all := mustParse(t, "SELECT "+strings.Join(every, ", ")+" FROM wide AS T WHERE T.c0 >= 0")
	// 2000 rows cost 400 KB at five columns and 5.3 MB at 66.
	budget := Limits{MaxBytes: 1 << 20}
	rs, err := db.ExecContext(context.Background(), five, budget)
	if err != nil {
		t.Fatalf("five of 66 columns must fit %d bytes: %v", budget.MaxBytes, err)
	}
	if len(rs.Rows) != rows || len(rs.Rows[0]) != 5 {
		t.Fatalf("got %d rows of width %d, want %d of 5", len(rs.Rows), len(rs.Rows[0]), rows)
	}
	var be *BudgetError
	if _, err := db.ExecContext(context.Background(), all, budget); !errors.As(err, &be) || be.Budget != "memory" {
		t.Fatalf("all 66 columns must overrun %d bytes with a memory *BudgetError, got %v", budget.MaxBytes, err)
	}
	be = nil
	if _, err := db.ExecContext(context.Background(), five, Limits{MaxBytes: 100 << 10}); !errors.As(err, &be) || be.Budget != "memory" {
		t.Fatalf("five columns of 2000 rows must overrun 100 KB with a memory *BudgetError, got %v", err)
	}
}

// TestBudgetChargesRowsKept: a query is charged for the rows its
// operators keep — 8 bytes a cell — plus its hash entries and result
// row headers, not for slab capacity. For a three-row join that stays
// within twice the cells the scans, the join and the projection emit.
func TestBudgetChargesRowsKept(t *testing.T) {
	db := NewDB()
	mustTable(t, db, "l", Schema{{Name: "k"}, {Name: "a"}}, []Row{{ID(1), ID(10)}, {ID(2), ID(20)}, {ID(3), ID(30)}})
	mustTable(t, db, "r", Schema{{Name: "k"}, {Name: "b"}}, []Row{{ID(1), ID(11)}, {ID(2), ID(21)}, {ID(3), ID(31)}})
	q := mustParse(t, "SELECT l.a AS a, r.b AS b FROM l AS l, r AS r WHERE l.k = r.k")
	rs, st, err := db.AnalyzeContext(context.Background(), q, Limits{MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rs.Rows))
	}
	// Each operator's width: a scan reads k and a value, the join
	// carries both scans' columns, the projection two items.
	width := map[string]int64{"scan": 2, "hash-join": 4, "project": 2}
	var cells int64
	for _, op := range st.Ops {
		w, ok := width[op.Kind]
		if !ok {
			t.Fatalf("unexpected operator %+v", op)
		}
		cells += op.RowsOut * w
	}
	if cells != 3*(2+2+4+2) {
		t.Fatalf("operators emitted %d cells, want %d: %+v", cells, 3*(2+2+4+2), st.Ops)
	}
	if kept := cells * cellBytes; st.BudgetBytesCharged > 2*kept {
		t.Errorf("charged %d bytes for %d bytes of rows kept, over twice", st.BudgetBytesCharged, kept)
	}
}

// TestExecNilContext ensures a nil context behaves like Background.
func TestExecNilContext(t *testing.T) {
	db := peopleDB(t)
	//lint:ignore SA1012 deliberate nil-context robustness check
	rs, err := db.ExecContext(nil, mustParse(t, govQuery), Limits{}) //nolint:staticcheck
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rs.Rows))
	}
}

// waitForGoroutines polls until the goroutine count settles back to
// (or below) the baseline, tolerating a small slack for runtime
// helpers; it fails the test on timeout — i.e. a leak.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// outerJoinDB holds l(k, a), 100 rows with keys 0..99, and r(k, b), 200
// rows with keys 50..249 and an index on k: l's rows 0..49 match
// nothing and come out of a LEFT OUTER JOIN NULL-extended.
func outerJoinDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	var lrows, rrows []Row
	for i := 0; i < 100; i++ {
		lrows = append(lrows, Row{ID(int64(i)), ID(int64(i))})
	}
	for i := 0; i < 200; i++ {
		rrows = append(rrows, Row{ID(int64(50 + i)), ID(int64(i))})
	}
	mustTable(t, db, "l", Schema{{Name: "k"}, {Name: "a"}}, lrows)
	rt := mustTable(t, db, "r", Schema{{Name: "k"}, {Name: "b"}}, rrows)
	if err := rt.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestGovernOuterJoin aborts a LEFT OUTER JOIN inside the index kernel
// and inside the hash kernel, with one worker and with four: an
// injected cancel or panic at the kernel's probe site surfaces typed, a
// row budget trips on the NULL-extended rows (the same budget holds the
// comma join on the same link), and the DB answers the next query
// correctly.
func TestGovernOuterJoin(t *testing.T) {
	defer SetParallelism(0, 0)
	db := outerJoinDB(t)
	const cols = "SELECT l.k AS lk, l.a AS la, r.k AS rk, r.b AS rb FROM l AS l"
	for _, kc := range []struct {
		kernel, with, right string
		site                CheckSite
		budget              int64 // holds the inner join's rows, not the outer's
	}{
		{"join-on index r.k", "", "r AS r", CkIndexProbe, 175},
		{"join-on hash", "WITH R AS (SELECT r.k AS k, r.b AS b FROM r AS r) ", "R AS r", CkHashProbe, 375},
	} {
		outerSQL := kc.with + cols + " LEFT OUTER JOIN " + kc.right + " ON l.k = r.k"
		outer := mustParse(t, outerSQL)
		inner := mustParse(t, kc.with+cols+", "+kc.right+" WHERE l.k = r.k")
		if got := joinKernel(t, db, outerSQL); got != kc.kernel {
			t.Fatalf("want the %s kernel, ran %s", kc.kernel, got)
		}
		answers := func(t *testing.T) {
			t.Helper()
			rs, err := db.ExecContext(context.Background(), outer, Limits{})
			if err != nil {
				t.Fatalf("follow-up query after abort: %v", err)
			}
			if len(rs.Rows) != 100 {
				t.Fatalf("follow-up query after abort: want 100 rows, got %d", len(rs.Rows))
			}
			for i, row := range rs.Rows {
				if want := i >= 50; row[0].I != int64(i) || !row[2].IsNull() != want {
					t.Fatalf("follow-up query after abort: row %d is %v", i, row)
				}
			}
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", kc.kernel, workers), func(t *testing.T) {
				SetParallelism(workers, 1)
				InjectFault(kc.site, FaultCancel, 1)
				_, err := db.ExecContext(context.Background(), outer, Limits{})
				fired := FaultFired()
				ClearFault()
				if !errors.Is(err, ErrCanceled) || !fired {
					t.Fatalf("cancel at %v: want ErrCanceled, got %v (fired %v)", kc.site, err, fired)
				}
				answers(t)

				InjectFault(kc.site, FaultPanic, 1)
				_, err = db.ExecContext(context.Background(), outer, Limits{})
				ClearFault()
				var pe *PanicError
				if !errors.As(err, &pe) || pe.V != faultPanicMsg {
					t.Fatalf("panic at %v: want *PanicError, got %v", kc.site, err)
				}
				answers(t)

				lim := Limits{MaxRows: kc.budget}
				if _, err := db.ExecContext(context.Background(), inner, lim); err != nil {
					t.Fatalf("the inner join must fit %d rows: %v", kc.budget, err)
				}
				var be *BudgetError
				if _, err := db.ExecContext(context.Background(), outer, lim); !errors.As(err, &be) || be.Budget != "rows" {
					t.Fatalf("the outer join's NULL-extended rows must overrun %d rows with a *BudgetError, got %v", kc.budget, err)
				}
				answers(t)
			})
		}
	}
}
