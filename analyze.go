package db2rdf

import (
	"context"
	"fmt"
	"strings"
	"time"

	"db2rdf/internal/rel"
)

// EXPLAIN ANALYZE: execute a query with per-operator instrumentation
// and pair the optimizer's TMC estimates with the actual cardinalities
// the executor produced — the estimate → execute → compare loop the
// paper's §3.1 cost model leaves implicit.

// OpStat is one instrumented executor operator (re-exported from the
// relational engine): actual rows in/out, hash-build entries, columnar
// chunks scanned vs zone-skipped, morsel workers used, wall time.
type OpStat = rel.OpStat

// ExecStats is the full execution profile of one query: the operator
// list, per-CTE row counts, and totals. Re-exported from the
// relational engine.
type ExecStats = rel.ExecStats

// PatternStat pairs one translated access node — one or more triple
// patterns answered by a single table access — with its runtime
// cardinality.
type PatternStat struct {
	// Cte is the generated CTE that evaluated this access (e.g. "QT3").
	Cte string
	// Method is the access method ("sc", "acs", "aco"); Merge the merge
	// rule that built the node ("none", "and", "or", "opt").
	Method string
	Merge  string
	// TripleIDs are the pattern IDs (document order) this access
	// answers; Ests the optimizer's TMC estimate for each.
	TripleIDs []int
	Ests      []float64
	// Est is the node-level estimate and Actual the rows the CTE
	// produced (-1 when the CTE was not executed, e.g. the query
	// aborted first).
	Est    float64
	Actual int64
	// QError is the symmetric estimation error max(est/act, act/est),
	// with both sides clamped to >= 1 so empty results do not divide by
	// zero; 0 when Actual is unknown.
	QError float64
}

// Analysis is the result of EXPLAIN ANALYZE: the static explanation,
// the executed results, the operator-level profile, and the
// estimate-vs-actual comparison per access pattern.
type Analysis struct {
	Explanation *Explanation
	// Results holds the query's decoded solutions (the query really
	// ran; nil when execution failed).
	Results *Results
	// Stats is the operator-level execution profile. It is present —
	// possibly partial — even when execution failed.
	Stats *ExecStats
	// Patterns pairs each translated access node with its actual
	// cardinality, in translation order.
	Patterns []PatternStat
	// Duration is the end-to-end time of the analyzed execution
	// (compile or cache lookup + run + decode).
	Duration time.Duration
}

// String renders the analysis as a human-readable report.
func (a *Analysis) String() string {
	var b strings.Builder
	if e := a.Explanation; e != nil {
		fmt.Fprintf(&b, "flow: %s\ntree: %s\nplan: %s\n", e.Flow, e.Tree, e.Plan)
	}
	if len(a.Patterns) > 0 {
		b.WriteString("patterns (estimate vs actual):\n")
		for _, p := range a.Patterns {
			ids := make([]string, len(p.TripleIDs))
			for i, id := range p.TripleIDs {
				ids[i] = fmt.Sprintf("t%d", id)
			}
			fmt.Fprintf(&b, "  %s [%s] %s/%s: est=%.1f", p.Cte, strings.Join(ids, ","), p.Method, p.Merge, p.Est)
			if p.Actual >= 0 {
				fmt.Fprintf(&b, " actual=%d q-error=%.2f", p.Actual, p.QError)
			} else {
				b.WriteString(" actual=? (not executed)")
			}
			b.WriteString("\n")
		}
	}
	if a.Stats != nil {
		b.WriteString("operators:\n")
		b.WriteString(a.Stats.String())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "analyzed in %s", a.Duration)
	return b.String()
}

// Analyze is AnalyzeContext with a background context.
func (s *Store) Analyze(q string) (*Analysis, error) {
	return s.AnalyzeContext(context.Background(), q)
}

// AnalyzeContext is EXPLAIN ANALYZE: it executes q exactly like
// QueryContext — same governance, same plan cache, same results — with
// per-operator instrumentation turned on, and returns the profile
// attached to the static explanation, including the optimizer's TMC
// estimate next to the actual row count of every access pattern.
//
// When execution fails, the returned Analysis still carries the
// explanation and the partial profile alongside the error, so an
// aborted (deadline, budget) query can be diagnosed.
func (s *Store) AnalyzeContext(ctx context.Context, q string) (an *Analysis, err error) {
	start := time.Now()
	// An analyzed query is still a served query: observe it (after the
	// lock releases and guard normalizes panics) like QueryContext does.
	defer func() {
		var res *Results
		var stats *ExecStats
		if an != nil {
			res, stats = an.Results, an.Stats
		}
		s.observeQuery(q, time.Since(start), res.rowCount(), stats, err)
	}()
	defer guard(q, &err)
	ctx, cancel := s.governCtx(ctx)
	defer cancel()
	// One compile (none on a cache hit): the explanation is rendered
	// from the plan that ran. The plan-cache state is read before the
	// lookup, so PlanCached says whether this run found its plan.
	snap := s.inner.Snapshot()
	expl := s.explanation(ctx, snap, q)
	sol, stats, cp, err := s.queryFull(ctx, snap, q, true)
	if cp == nil {
		return nil, attachQuery(q, err)
	}
	expl.render(cp)
	var res *Results
	if err == nil {
		res, err = sol.Results()
	}
	an = &Analysis{Explanation: expl, Results: res, Stats: stats}
	if stats != nil {
		an.Patterns = patternStats(cp, stats)
	}
	an.Duration = time.Since(start)
	return an, attachQuery(q, err)
}

// patternStats joins the translator's access traces (CTE name + TMC
// estimates) with the executed per-CTE row counts.
func patternStats(cp *compiledPlan, stats *ExecStats) []PatternStat {
	out := make([]PatternStat, 0, len(cp.tr.Traces))
	for _, tr := range cp.tr.Traces {
		p := PatternStat{
			Cte:       tr.Cte,
			Method:    tr.Method.String(),
			Merge:     tr.Merge.String(),
			TripleIDs: tr.TripleIDs,
			Ests:      tr.Ests,
			Est:       tr.Est,
			Actual:    -1,
		}
		// rel lowercases CTE names when executing.
		if act, ok := stats.CTERows[strings.ToLower(tr.Cte)]; ok {
			p.Actual = act
			p.QError = qError(tr.Est, float64(act))
		}
		out = append(out, p)
	}
	return out
}

// qError is the symmetric estimation error: max(est/act, act/est),
// both sides clamped to >= 1.
func qError(est, act float64) float64 {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

// SlowQuery is the record handed to Options.SlowQueryLog for a query
// whose duration reached Options.SlowQueryThreshold.
type SlowQuery struct {
	// Query is the SPARQL text as submitted.
	Query string
	// Duration is the end-to-end serving time.
	Duration time.Duration
	// Rows is the decoded result row count (0 on failure).
	Rows int
	// Err is the error the query returned, if any.
	Err error
	// Stats is the analyzed operator tree. It is present because a
	// store with a slow-query log executes every query with
	// instrumentation on (see Options.SlowQueryThreshold); nil only for
	// queries that failed before reaching the executor.
	Stats *ExecStats
}

// String renders the slow-query record as a log line plus the operator
// profile.
func (sq SlowQuery) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slow query (%s, %d rows", sq.Duration, sq.Rows)
	if sq.Err != nil {
		fmt.Fprintf(&b, ", error: %v", sq.Err)
	}
	fmt.Fprintf(&b, "): %s", sq.Query)
	if sq.Stats != nil {
		b.WriteString("\n")
		b.WriteString(sq.Stats.String())
	}
	return b.String()
}
