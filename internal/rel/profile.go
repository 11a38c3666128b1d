package rel

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Query profiling: the executor side of EXPLAIN ANALYZE. A profiled
// execution (DB.AnalyzeContext) records one OpStat per operator —
// actual rows in/out, hash-build entries, columnar chunks scanned vs
// zone-skipped, morsel workers used, wall time — plus the row count of
// every CTE, so the caller can put actual cardinalities next to the
// optimizer's estimates.
//
// The instrumentation contract: when profiling is off (exec.prof ==
// nil, the default for ExecContext), no OpStat is built, no timestamp
// is taken and no per-worker counter slice is allocated — every
// profiling hook is behind a nil check, so the hot path stays
// allocation-free and within noise of the uninstrumented executor.
// All OpStat appends happen on the coordinator goroutine after any
// morsel fan-out has joined, so the profiler needs no locking.

// OpStat records the actual runtime behavior of one executor operator.
type OpStat struct {
	// Kind is "scan", "index-scan", "filter", "index-join", "hash-join",
	// "cross-join", "join-on", "unpivot", "project", "dedup", "order-by"
	// or "limit". A comma join reports its kernel as the kind (label: the
	// probed index of an index join); a JOIN … ON
	// runs on the same kernels and reports "join-on" with the kernel as
	// the label: "index <table>.<col>", "hash" or "nested".
	Kind  string
	Label string // detail: table/index name, join kernel, ...
	Scope string // lower-cased CTE name the operator ran under ("" = outer query body)

	RowsIn    int64 // input rows (the probe side for joins)
	RowsOut   int64 // rows produced
	BuildRows int64 // hash-build entries / inner-side rows for joins

	Chunks        int64 // columnar chunks covered by a scan
	ChunksSkipped int64 // chunks pruned by zone maps without per-row work

	// ColsRead of the base table's ColsTotal columns were gathered into
	// rows; set on the operators that read a base table ("scan",
	// "index-scan", "index-join" and the index kernel of "join-on").
	ColsRead, ColsTotal int

	// Pairs is the number of VALUES rows of an "unpivot". Fused with a
	// base-table read, the operator is labelled with the access path it
	// ran under ("scan dph", "index-join rph.entry"), RowsIn counts the
	// base rows it expanded and ColsRead includes the cell columns.
	Pairs int

	Workers   int   // morsel workers the operator fanned out across
	ElapsedNs int64 // wall time spent in the operator
}

// String renders one operator line, e.g.
// "[qt3] scan dph: in=5000 out=120 chunks=5 skipped=3 cols=5/66 workers=4 (1.2ms)".
func (s OpStat) String() string {
	var b strings.Builder
	if s.Scope != "" {
		fmt.Fprintf(&b, "[%s] ", s.Scope)
	}
	b.WriteString(s.Kind)
	if s.Label != "" {
		b.WriteString(" " + s.Label)
	}
	fmt.Fprintf(&b, ": in=%d out=%d", s.RowsIn, s.RowsOut)
	if s.BuildRows > 0 {
		fmt.Fprintf(&b, " build=%d", s.BuildRows)
	}
	if s.Chunks > 0 {
		fmt.Fprintf(&b, " chunks=%d skipped=%d", s.Chunks, s.ChunksSkipped)
	}
	if s.ColsTotal > 0 {
		fmt.Fprintf(&b, " cols=%d/%d", s.ColsRead, s.ColsTotal)
	}
	if s.Pairs > 0 {
		fmt.Fprintf(&b, " pairs=%d", s.Pairs)
	}
	fmt.Fprintf(&b, " workers=%d (%s)", s.Workers, time.Duration(s.ElapsedNs))
	return b.String()
}

// ExecStats is the profile of one query execution.
type ExecStats struct {
	// Ops lists every instrumented operator in completion order.
	Ops []OpStat
	// CTERows maps each CTE (lower-cased name) to the rows it produced —
	// the actual cardinality the translator's access estimates are
	// compared against.
	CTERows map[string]int64
	// Rows is the final result row count.
	Rows int64
	// ElapsedNs is the total execution wall time.
	ElapsedNs int64
	// Workers is the maximum morsel parallelism any operator achieved.
	Workers int
	// BudgetRowsCharged / BudgetBytesCharged are the totals charged
	// against the row and memory budgets. They are maintained only when
	// the corresponding Limits field is set (unlimited queries skip the
	// atomic accounting entirely).
	BudgetRowsCharged  int64
	BudgetBytesCharged int64
}

// String renders the profile as one line per operator plus a summary.
func (st *ExecStats) String() string {
	var b strings.Builder
	for _, op := range st.Ops {
		b.WriteString("  " + op.String() + "\n")
	}
	if len(st.CTERows) > 0 {
		names := make([]string, 0, len(st.CTERows))
		for n := range st.CTERows {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  cte rows:")
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, st.CTERows[n])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  total: %d rows, %d workers max, %s", st.Rows, st.Workers, time.Duration(st.ElapsedNs))
	return b.String()
}

// profiler accumulates an ExecStats during one profiled execution. It
// is owned by the coordinator goroutine; operators record their stats
// after their morsel workers (if any) have joined.
type profiler struct {
	stats ExecStats
	scope string // current CTE being evaluated
}

func (p *profiler) add(s OpStat) {
	if s.Workers > p.stats.Workers {
		p.stats.Workers = s.Workers
	}
	p.stats.Ops = append(p.stats.Ops, s)
}

// opStart returns the operator start time when profiling is on (the
// zero time otherwise, costing nothing on the disabled path).
func (ex *exec) opStart() time.Time {
	if ex.prof == nil {
		return time.Time{}
	}
	return time.Now()
}

// opEnd records one operator's stats when profiling is on. The Scope
// and ElapsedNs fields are filled in here.
func (ex *exec) opEnd(t0 time.Time, s OpStat) {
	if ex.prof == nil {
		return
	}
	s.Scope = ex.prof.scope
	s.ElapsedNs = time.Since(t0).Nanoseconds()
	ex.prof.add(s)
}

// AnalyzeContext is ExecContext with per-operator instrumentation: it
// executes q exactly like ExecContext (same governance, same results)
// and additionally returns the execution profile. The returned stats
// are valid — possibly partial — even when execution fails, so an
// aborted query can still be diagnosed.
func (db *DB) AnalyzeContext(ctx context.Context, q *Query, lim Limits) (*ResultSet, *ExecStats, error) {
	p := &profiler{}
	p.stats.CTERows = make(map[string]int64)
	start := time.Now()
	rs, err := db.execContext(ctx, q, lim, p)
	p.stats.ElapsedNs = time.Since(start).Nanoseconds()
	if rs != nil {
		p.stats.Rows = int64(len(rs.Rows))
	}
	return rs, &p.stats, err
}
