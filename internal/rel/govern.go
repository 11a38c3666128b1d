package rel

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"unsafe"
)

// Query lifecycle governance. The optimizer can only bound a query's
// cost heuristically (optimal flow extraction is NP-hard, and even a
// good plan can blow up on skewed data), so the executor enforces hard
// limits at run time: cooperative cancellation and deadlines via
// context.Context, and row/memory budgets charged against shared
// atomic counters. Every long-running loop — hash-join build and
// probe, index probes, filters, projection, ORDER BY key extraction,
// DISTINCT dedup, cross products, and each morsel worker —
// checks the governance state at chunk granularity (checkpointRows
// rows), so an abort surfaces within one chunk of work, never per row.
//
// Violations are typed: ErrCanceled, ErrDeadlineExceeded, and
// *BudgetError (which errors.Is-matches ErrBudgetExceeded and reports
// which budget tripped and by how much). A panic anywhere in the
// executor — including compiled-expression closures and morsel
// workers — is recovered, converted to a *PanicError, and returned
// like any other error, leaving the process and the store usable.

// Typed governance errors. They are returned (possibly wrapped) by
// ExecContext; match with errors.Is.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = errors.New("rel: query canceled")
	// ErrDeadlineExceeded reports that the query's deadline passed.
	ErrDeadlineExceeded = errors.New("rel: query deadline exceeded")
	// ErrBudgetExceeded is the errors.Is target for *BudgetError.
	ErrBudgetExceeded = errors.New("rel: query budget exceeded")
)

// Limits bounds one query execution. The zero value means unlimited.
type Limits struct {
	// MaxRows bounds the total number of rows the executor
	// materializes across all operators of the query — intermediate
	// join/filter/projection outputs included — so a runaway join
	// trips the budget long before its result is complete.
	MaxRows int64
	// MaxBytes bounds the bytes of those rows (8 per cell), of
	// hash-table entries and of the result's row headers.
	MaxBytes int64
}

// BudgetError reports a tripped resource budget: which budget, the
// configured limit, and the usage that tripped it.
type BudgetError struct {
	Budget string // "rows" or "memory" (or "injected" from the fault harness)
	Limit  int64
	Used   int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("rel: query %s budget exceeded: used %d of %d (%d over)",
		e.Budget, e.Used, e.Limit, e.Used-e.Limit)
}

// Is makes errors.Is(err, ErrBudgetExceeded) true for budget errors.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// PanicError is a panic recovered during query execution, converted to
// an error so one bad query (or one bug in a compiled-expression
// closure) cannot take the process down.
type PanicError struct {
	V     any    // the recovered panic value
	Stack []byte // stack captured at the recovery site
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("rel: panic during query execution: %v", e.V)
}

// NewPanicError wraps a recovered panic value, capturing the stack.
// Exported for callers (package db2rdf) that contain panics in their
// own pipeline stages with the same error shape.
func NewPanicError(v any) *PanicError {
	return &PanicError{V: v, Stack: debug.Stack()}
}

// checkpointRows is the chunk granularity of governance checks: loops
// consult the shared state once per this many rows of work, keeping
// the per-row cost to a local counter increment.
const checkpointRows = 1024

// cellBytes is the memory charged per cell of an emitted row, and
// rowHeaderBytes per row of a ResultSet.
const (
	cellBytes      = int64(unsafe.Sizeof(Cell{}))
	rowHeaderBytes = int64(unsafe.Sizeof(Row(nil)))
)

// hashEntryBytes approximates the per-entry cost of a join hash table:
// a map slot holding the key and the chain's head, and a chain link.
const hashEntryBytes = 24

// CheckSite names a governance checkpoint location. The fault
// injection harness (faultinject.go) keys on it so tests can force an
// abort at a specific point in the executor. Comma joins and JOIN … ON
// share the join kernels, and so their sites: CkIndexProbe,
// CkHashBuild and CkHashProbe, and CkCross.
type CheckSite uint8

// Checkpoint sites.
const (
	// CkAny matches every site (fault injection only).
	CkAny CheckSite = iota
	// CkCore is the per-SELECT-core / per-CTE entry checkpoint.
	CkCore
	// CkFilter is the filter scan loop (filterRelation, indexed scans).
	CkFilter
	// CkHashBuild is the hash-join build loop.
	CkHashBuild
	// CkHashProbe is the hash-join probe loop (runs in morsel workers).
	CkHashProbe
	// CkIndexProbe is the index nested-loop probe (morsel workers).
	CkIndexProbe
	// CkCross is the nested-loop join: a cross product, or a JOIN … ON
	// with no equality link (morsel workers).
	CkCross
	// CkProject is the projection loop (morsel workers).
	CkProject
	// CkOrderBy is the ORDER BY key-extraction loop.
	CkOrderBy
	// CkDedup is the DISTINCT dedup loop.
	CkDedup
	// CkUnpivot is the lateral unpivot: every scan, index scan and
	// index probe that expands base rows into pairs (morsel workers).
	CkUnpivot
)

var ckNames = [...]string{"any", "core", "filter", "hash-build", "hash-probe",
	"index-probe", "cross", "project", "order-by", "dedup", "unpivot"}

// String names the site.
func (s CheckSite) String() string {
	if int(s) < len(ckNames) {
		return ckNames[s]
	}
	return fmt.Sprintf("CheckSite(%d)", uint8(s))
}

// govern is the shared lifecycle state of one query execution: the
// cancellation signal and the atomic budget counters every worker
// charges against.
type govern struct {
	ctx      context.Context
	done     <-chan struct{}
	maxRows  int64
	maxBytes int64
	rows     atomic.Int64
	bytes    atomic.Int64
}

func newGovern(ctx context.Context, lim Limits) *govern {
	if ctx == nil {
		ctx = context.Background()
	}
	return &govern{ctx: ctx, done: ctx.Done(), maxRows: lim.MaxRows, maxBytes: lim.MaxBytes}
}

// check is one governance checkpoint: it consults the fault-injection
// hook, then the cancellation signal. With no fault armed and a
// Background context it is one atomic load and a nil-channel test.
func (g *govern) check(site CheckSite) error {
	if err := faultCheck(site); err != nil {
		return err
	}
	if g.done != nil {
		select {
		case <-g.done:
			if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
				return ErrDeadlineExceeded
			}
			return ErrCanceled
		default:
		}
	}
	return nil
}

// chargeRows charges n materialized rows against the row budget.
func (g *govern) chargeRows(n int64) error {
	if g.maxRows > 0 {
		if used := g.rows.Add(n); used > g.maxRows {
			return &BudgetError{Budget: "rows", Limit: g.maxRows, Used: used}
		}
	}
	return nil
}

// chargeBytes charges n allocated bytes against the memory budget.
func (g *govern) chargeBytes(n int64) error {
	if g.maxBytes > 0 {
		if used := g.bytes.Add(n); used > g.maxBytes {
			return &BudgetError{Budget: "memory", Limit: g.maxBytes, Used: used}
		}
	}
	return nil
}

// ticker is a per-goroutine checkpoint counter: loops call step() per
// row of work (and emit() per output row, which also charges rowBytes),
// and every checkpointRows steps the accumulated row/byte charges are
// flushed to the shared budget and the cancellation signal is checked.
// One ticker belongs to exactly one goroutine.
type ticker struct {
	g        *govern
	site     CheckSite
	n        int   // steps since the last flush
	emitted  int64 // output rows since the last flush
	bytes    int64 // bytes since the last flush
	rowBytes int64 // charged per emitted row: its width in cells × cellBytes
}

// step records one unit of work, flushing at chunk granularity.
func (t *ticker) step() error {
	if t.n++; t.n >= checkpointRows {
		return t.flush()
	}
	return nil
}

// stepN records n units of work at once (a vectorized batch),
// flushing when the accumulated count crosses a chunk boundary. Used
// by the columnar scan, which evaluates whole selection vectors
// between checkpoints instead of individual rows.
func (t *ticker) stepN(n int) error {
	if n <= 0 {
		return nil
	}
	if t.n += n; t.n >= checkpointRows {
		return t.flush()
	}
	return nil
}

// emit records one output row (and one unit of work).
func (t *ticker) emit() error {
	t.emitted++
	t.bytes += t.rowBytes
	return t.step()
}

// emitN records n output rows (and n units of work) at once — the
// columnar scan's dense fast path emits a whole chunk per call, which
// never exceeds checkpointRows, so the checkpoint cadence is
// unchanged.
func (t *ticker) emitN(n int) error {
	if n <= 0 {
		return nil
	}
	t.emitted += int64(n)
	t.bytes += int64(n) * t.rowBytes
	return t.stepN(n)
}

// flush settles accumulated charges and runs one checkpoint. Loops
// call it on entry (so every operator checkpoints at least once, even
// on tiny inputs) and on exit (so budget accounting is exact at
// operator boundaries).
func (t *ticker) flush() error {
	t.n = 0
	if t.emitted > 0 {
		n := t.emitted
		t.emitted = 0
		if err := t.g.chargeRows(n); err != nil {
			return err
		}
	}
	if t.bytes > 0 {
		n := t.bytes
		t.bytes = 0
		if err := t.g.chargeBytes(n); err != nil {
			return err
		}
	}
	return t.g.check(t.site)
}
