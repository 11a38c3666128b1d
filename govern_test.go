package db2rdf_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// Store-level governance tests: the typed errors cross the public API,
// aborted queries leave the store fully usable, and the Options
// deadline/budget knobs behave as documented. Mid-execution aborts are
// driven by the executor's fault-injection harness, so nothing here
// depends on real timing. Tests that arm the (global) harness must not
// run in parallel.

// chainStore loads n subject→object links so queries over two hops
// compile to a genuine join (star merging cannot collapse a
// subject-object chain into one scan).
func chainStore(t testing.TB, opts db2rdf.Options, n int) *db2rdf.Store {
	t.Helper()
	s, err := db2rdf.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://gov/e%d", i)),
			rdf.NewIRI("http://gov/linked"),
			rdf.NewIRI(fmt.Sprintf("http://gov/e%d", i+1)),
		))
	}
	if err := s.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	return s
}

const chainJoin = `SELECT ?a ?c WHERE { ?a <http://gov/linked> ?b . ?b <http://gov/linked> ?c }`

// checkStoreUsable asserts a follow-up query on the same store returns
// correct results after an abort.
func checkStoreUsable(t *testing.T, s *db2rdf.Store, wantRows int) {
	t.Helper()
	res, err := s.Query(`SELECT ?a WHERE { ?a <http://gov/linked> <http://gov/e1> }`)
	if err != nil {
		t.Fatalf("follow-up query after abort: %v", err)
	}
	if len(res.Rows) != wantRows {
		t.Fatalf("follow-up query: want %d rows, got %d", wantRows, len(res.Rows))
	}
}

func TestQueryContextCancelMidJoin(t *testing.T) {
	s := chainStore(t, db2rdf.Options{}, 200)
	rel.InjectFault(rel.CkHashProbe, rel.FaultCancel, 1)
	defer rel.ClearFault()
	_, err := s.QueryContext(context.Background(), chainJoin)
	if !errors.Is(err, db2rdf.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !rel.FaultFired() {
		t.Fatal("hash-probe checkpoint never reached: query did not join")
	}
	rel.ClearFault()
	checkStoreUsable(t, s, 1)
}

func TestDeadlineDuringOrderBy(t *testing.T) {
	s := chainStore(t, db2rdf.Options{}, 200)
	rel.InjectFault(rel.CkOrderBy, rel.FaultDeadline, 1)
	defer rel.ClearFault()
	_, err := s.Query(chainJoin + ` ORDER BY ?a`)
	if !errors.Is(err, db2rdf.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if !rel.FaultFired() {
		t.Fatal("order-by checkpoint never reached")
	}
	rel.ClearFault()
	checkStoreUsable(t, s, 1)
}

func TestQueryContextPreCanceled(t *testing.T) {
	s := chainStore(t, db2rdf.Options{}, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryContext(ctx, chainJoin); !errors.Is(err, db2rdf.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	checkStoreUsable(t, s, 1)
}

// TestQueryTimeoutOption exercises Options.QueryTimeout: a deadline
// that has effectively already passed (1ns) aborts at the first
// checkpoint, through plain Query with no caller context at all.
func TestQueryTimeoutOption(t *testing.T) {
	s := chainStore(t, db2rdf.Options{QueryTimeout: time.Nanosecond}, 50)
	if _, err := s.Query(chainJoin); !errors.Is(err, db2rdf.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded from Options.QueryTimeout, got %v", err)
	}
}

// TestEarlierParentDeadlineWins: a caller context that is already
// expired beats a generous store timeout.
func TestEarlierParentDeadlineWins(t *testing.T) {
	s := chainStore(t, db2rdf.Options{QueryTimeout: time.Hour}, 50)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.QueryContext(ctx, chainJoin); !errors.Is(err, db2rdf.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded from parent deadline, got %v", err)
	}
}

// TestRowBudgetInsideMorselWorker trips MaxResultRows inside a
// fanned-out join, then shows a cheaper query on the same store
// passing under the same budget.
func TestRowBudgetInsideMorselWorker(t *testing.T) {
	rel.SetParallelism(4, 1)
	defer rel.SetParallelism(0, 0)
	s := chainStore(t, db2rdf.Options{MaxResultRows: 50}, 400)
	_, err := s.Query(chainJoin)
	var be *db2rdf.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if !errors.Is(err, db2rdf.ErrBudgetExceeded) {
		t.Fatalf("BudgetError must match ErrBudgetExceeded: %v", err)
	}
	if be.Budget != "rows" {
		t.Fatalf("want rows budget, got %+v", be)
	}
	checkStoreUsable(t, s, 1) // selective query fits the same budget
}

func TestMemoryBudgetStore(t *testing.T) {
	rel.SetParallelism(4, 1)
	defer rel.SetParallelism(0, 0)
	s := chainStore(t, db2rdf.Options{MaxMemoryBytes: 256}, 400)
	_, err := s.Query(chainJoin)
	var be *db2rdf.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Budget != "memory" {
		t.Fatalf("want memory budget, got %+v", be)
	}
}

// TestInjectedPanicAttachesQueryText: a panic inside a morsel worker
// comes back as *PanicError wrapped with the offending query text, and
// the store (including its plan cache) keeps working.
func TestInjectedPanicAttachesQueryText(t *testing.T) {
	rel.SetParallelism(4, 1)
	defer rel.SetParallelism(0, 0)
	s := chainStore(t, db2rdf.Options{}, 200)
	rel.InjectFault(rel.CkHashProbe, rel.FaultPanic, 1)
	defer rel.ClearFault()
	_, err := s.Query(chainJoin)
	rel.ClearFault()
	var pe *db2rdf.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if !strings.Contains(err.Error(), "http://gov/linked") {
		t.Fatalf("error should carry the query text, got %q", err.Error())
	}
	// The aborted execution must not have poisoned the cached plan.
	res, err := s.Query(chainJoin)
	if err != nil {
		t.Fatalf("rerun after contained panic: %v", err)
	}
	if len(res.Rows) != 199 {
		t.Fatalf("rerun after contained panic: want 199 rows, got %d", len(res.Rows))
	}
	checkStoreUsable(t, s, 1)
}

// TestGraphQueryGovernance: CONSTRUCT goes through the same lifecycle
// layer.
func TestGraphQueryGovernance(t *testing.T) {
	s := chainStore(t, db2rdf.Options{}, 100)
	rel.InjectFault(rel.CkHashProbe, rel.FaultCancel, 1)
	defer rel.ClearFault()
	_, err := s.QueryGraphContext(context.Background(),
		`CONSTRUCT { ?a <http://gov/hop2> ?c } WHERE { ?a <http://gov/linked> ?b . ?b <http://gov/linked> ?c }`)
	if !errors.Is(err, db2rdf.ErrCanceled) {
		t.Fatalf("want ErrCanceled from CONSTRUCT, got %v", err)
	}
	rel.ClearFault()
	checkStoreUsable(t, s, 1)
}

// TestPathClosureGovernance: computing a closure's pairs is canceled
// too, changes no table of the snapshot's database, and a canceled
// computation is not kept: the rerun on the same snapshot computes the
// pairs afresh.
func TestPathClosureGovernance(t *testing.T) {
	s := chainStore(t, db2rdf.Options{}, 100)
	snap := s.Internal().Snapshot()
	before := strings.Join(snap.DB().TableNames(), ",")
	const q = `SELECT ?b WHERE { <http://gov/e0> <http://gov/linked>+ ?b }`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.QueryContext(ctx, q)
	if !errors.Is(err, db2rdf.ErrCanceled) {
		t.Fatalf("want ErrCanceled from closure query, got %v", err)
	}
	if after := strings.Join(snap.DB().TableNames(), ","); after != before {
		t.Fatalf("aborted closure query changed the snapshot's tables: %s -> %s", before, after)
	}
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Internal().Snapshot() != snap {
		t.Fatal("the rerun ran on another snapshot")
	}
	if len(res.Rows) != 100 {
		t.Fatalf("closure rerun: want 100 rows, got %d", len(res.Rows))
	}
	if after := strings.Join(snap.DB().TableNames(), ","); after != before {
		t.Fatalf("closure query changed the snapshot's tables: %s -> %s", before, after)
	}
}

// TestExplainGovernance: Explain reports the effective deadline and
// budgets.
func TestExplainGovernance(t *testing.T) {
	s := chainStore(t, db2rdf.Options{
		QueryTimeout:   time.Hour,
		MaxResultRows:  123,
		MaxMemoryBytes: 456,
	}, 10)
	ex, err := s.Explain(chainJoin)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Deadline.IsZero() {
		t.Fatal("want nonzero effective deadline from Options.QueryTimeout")
	}
	if d := time.Until(ex.Deadline); d < 59*time.Minute || d > time.Hour {
		t.Fatalf("effective deadline off: %v away", d)
	}
	if ex.MaxResultRows != 123 || ex.MaxMemoryBytes != 456 {
		t.Fatalf("budgets not reported: %+v", ex)
	}

	plain := chainStore(t, db2rdf.Options{}, 10)
	ex, err = plain.Explain(chainJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Deadline.IsZero() || ex.MaxResultRows != 0 || ex.MaxMemoryBytes != 0 {
		t.Fatalf("ungoverned store should report no limits: %+v", ex)
	}
}

// TestFaultInVariablePredicateAccess: every abort mode at the lateral
// unpivot's checkpoint, reached through a variable-predicate query with
// the entity unbound (the scan) and bound upstream (the index probe),
// inside morsel workers. The typed error crosses the API, the cached
// plan and the store keep answering, and no goroutine is left behind.
func TestFaultInVariablePredicateAccess(t *testing.T) {
	rel.SetParallelism(4, 1)
	defer rel.SetParallelism(0, 0)
	s := chainStore(t, db2rdf.Options{}, 300)
	before := runtime.NumGoroutine()
	for _, q := range []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?b ?p ?o WHERE { <http://gov/e7> <http://gov/linked> ?b . ?b ?p ?o }`,
	} {
		want, err := s.Query(q) // compiles and caches the plan
		if err != nil || len(want.Rows) == 0 {
			t.Fatalf("reference run: %d rows, %v", len(want.Rows), err)
		}
		for _, m := range []struct {
			mode rel.FaultMode
			want error
		}{
			{rel.FaultCancel, db2rdf.ErrCanceled},
			{rel.FaultDeadline, db2rdf.ErrDeadlineExceeded},
			{rel.FaultBudget, db2rdf.ErrBudgetExceeded},
			{rel.FaultPanic, nil},
		} {
			for _, nth := range []int64{1, 2} {
				rel.InjectFault(rel.CkUnpivot, m.mode, nth)
				_, err := s.Query(q)
				fired := rel.FaultFired()
				rel.ClearFault()
				if !fired {
					t.Fatalf("%s: visit %d of the unpivot checkpoint never happened", q, nth)
				}
				var pe *db2rdf.PanicError
				if m.want == nil && (!errors.As(err, &pe) || !strings.Contains(err.Error(), q)) {
					t.Fatalf("%s: want a *PanicError carrying the query text, got %v", q, err)
				}
				if m.want != nil && !errors.Is(err, m.want) {
					t.Fatalf("%s, visit %d: want %v, got %v", q, nth, m.want, err)
				}
				got, err := s.Query(q)
				if err != nil || len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s: rerun after the abort: %v", q, err)
				}
			}
		}
	}
	checkStoreUsable(t, s, 1)
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
