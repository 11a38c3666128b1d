package db2rdf_test

// Tests for the observability subsystem: the metrics registry, the
// slow-query log, and the estimate-vs-actual EXPLAIN ANALYZE harness
// over a benchmark corpus.

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"db2rdf"
	"db2rdf/internal/gen"
)

func obsStore(t testing.TB, opts db2rdf.Options) (*db2rdf.Store, *gen.Dataset) {
	t.Helper()
	ds := microData()
	s, err := db2rdf.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	return s, ds
}

func TestMetricsRegistry(t *testing.T) {
	s, ds := obsStore(t, db2rdf.Options{})
	q := ds.Queries[0].SPARQL
	var rows int
	for i := 0; i < 3; i++ {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rows += len(res.Rows)
	}
	// One aborted query: a pre-canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryContext(ctx, q); err == nil {
		t.Fatal("canceled context must abort the query")
	}
	// One syntactically broken query (an error, but not a governance
	// abort).
	if _, err := s.Query("SELECT WHERE"); err == nil {
		t.Fatal("broken query must error")
	}

	snap := s.Metrics().Snapshot()
	if snap.QueriesServed != 5 {
		t.Fatalf("queries served = %d, want 5", snap.QueriesServed)
	}
	if snap.QueryErrors != 2 {
		t.Fatalf("query errors = %d, want 2", snap.QueryErrors)
	}
	if snap.AbortsCanceled != 1 {
		t.Fatalf("canceled aborts = %d, want 1", snap.AbortsCanceled)
	}
	if snap.RowsEmitted != uint64(rows) {
		t.Fatalf("rows emitted = %d, want %d", snap.RowsEmitted, rows)
	}
	if snap.TriplesLoaded != uint64(len(microData().Triples)) {
		t.Fatalf("triples loaded = %d, want %d", snap.TriplesLoaded, len(microData().Triples))
	}
	if snap.LoadSeconds <= 0 || snap.LoadTriplesPerSec <= 0 {
		t.Fatalf("load throughput not recorded: %+v", snap)
	}
	// 3 query compiles of the same text: 1 miss then hits.
	if snap.PlanCacheHits < 2 || snap.PlanCacheMisses < 1 {
		t.Fatalf("plan cache hits=%d misses=%d", snap.PlanCacheHits, snap.PlanCacheMisses)
	}
	// Histogram: cumulative, last bucket equals queries served.
	last := snap.LatencyCounts[len(snap.LatencyCounts)-1]
	if last != snap.QueriesServed {
		t.Fatalf("+Inf latency bucket = %d, want %d", last, snap.QueriesServed)
	}
	for i := 1; i < len(snap.LatencyCounts); i++ {
		if snap.LatencyCounts[i] < snap.LatencyCounts[i-1] {
			t.Fatalf("latency buckets not cumulative: %v", snap.LatencyCounts)
		}
	}

	// expvar compatibility: String() must be valid JSON.
	var decoded map[string]any
	if err := json.Unmarshal([]byte(s.Metrics().String()), &decoded); err != nil {
		t.Fatalf("Metrics.String() is not JSON: %v", err)
	}
	// Prometheus text export carries the counters.
	var b strings.Builder
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"db2rdf_queries_served_total 5",
		"db2rdf_query_aborts_total{type=\"canceled\"} 1",
		"db2rdf_plan_cache_hits_total",
		"db2rdf_query_duration_seconds_bucket{le=\"+Inf\"} 5",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, b.String())
		}
	}
}

func TestMetricsBudgetAborts(t *testing.T) {
	s, ds := obsStore(t, db2rdf.Options{MaxResultRows: 1})
	if _, err := s.Query(ds.Queries[0].SPARQL); err == nil {
		t.Fatal("1-row budget must trip")
	}
	snap := s.Metrics().Snapshot()
	if snap.AbortsRowBudget != 1 {
		t.Fatalf("row-budget aborts = %d, want 1", snap.AbortsRowBudget)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var got []db2rdf.SlowQuery
	s, ds := obsStore(t, db2rdf.Options{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog: func(sq db2rdf.SlowQuery) {
			mu.Lock()
			got = append(got, sq)
			mu.Unlock()
		},
	})
	q := ds.Queries[0].SPARQL
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("slow-query log got %d records, want 1", len(got))
	}
	sq := got[0]
	if sq.Query != q || sq.Rows != len(res.Rows) || sq.Duration <= 0 {
		t.Fatalf("bad slow-query record: %+v", sq)
	}
	if sq.Stats == nil || len(sq.Stats.Ops) == 0 {
		t.Fatal("slow-query record must carry the analyzed operator tree")
	}
	if !strings.Contains(sq.String(), "slow query") {
		t.Fatalf("rendering: %q", sq.String())
	}
	if s.Metrics().Snapshot().SlowQueries != 1 {
		t.Fatalf("slow-query counter = %d, want 1", s.Metrics().Snapshot().SlowQueries)
	}
}

// TestAnalyzeEstimateVsActual is the estimate-vs-actual harness: every
// corpus query must come back from EXPLAIN ANALYZE with per-operator
// actuals that are internally consistent and a TMC estimate paired
// with an actual cardinality for every access pattern.
func TestAnalyzeEstimateVsActual(t *testing.T) {
	s, ds := obsStore(t, db2rdf.Options{})
	queries := ds.Queries
	// SP2Bench's variable-predicate queries, on their own store: SQ9 has
	// two variable-predicate patterns, each answered by one unpivot over
	// the entity's row; SQ3a's filter folds its variable predicate into a
	// constant, leaving none.
	sp2b := gen.SP2B(5000)
	sq, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sq.LoadTriples(sp2b.Triples); err != nil {
		t.Fatal(err)
	}
	unpivots := map[string]int{"SQ3a": 0, "SQ9": 2}
	tablesRead := map[string]int{"SQ3a": 2, "SQ9": 4} // one access per triple pattern
	for _, cq := range sp2b.Queries {
		if _, ok := unpivots[cq.Name]; ok {
			queries = append(queries[:len(queries):len(queries)], cq)
		}
	}
	if len(queries) != len(ds.Queries)+len(unpivots) {
		t.Fatalf("SP2Bench templates %v not found", unpivots)
	}
	for i, cq := range queries {
		if i >= len(ds.Queries) {
			s = sq
		}
		an, err := s.Analyze(cq.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", cq.Name, err)
		}
		if an.Stats == nil || len(an.Stats.Ops) == 0 {
			t.Fatalf("%s: no operator stats", cq.Name)
		}
		if an.Results == nil {
			t.Fatalf("%s: no results", cq.Name)
		}
		// The analysis explains the plan that ran, which is the plan
		// Explain compiles.
		ex, err := s.Explain(cq.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", cq.Name, err)
		}
		if a := an.Explanation; a.Flow != ex.Flow || a.Tree != ex.Tree || a.Plan != ex.Plan || a.SQL != ex.SQL {
			t.Fatalf("%s: Analyze explained\n%+v\nExplain says\n%+v", cq.Name, a, ex)
		}
		// Totals must match the decoded result set (ASK queries return
		// at most one relational row).
		if !an.Results.IsAsk && an.Stats.Rows != int64(len(an.Results.Rows)) {
			t.Fatalf("%s: stats.Rows=%d but %d result rows", cq.Name, an.Stats.Rows, len(an.Results.Rows))
		}
		// Operator-local row conservation, and the read width of every
		// operator over a base table.
		lastInScope := map[string]db2rdf.OpStat{}
		hashReads, flips := 0, 0
		for _, op := range an.Stats.Ops {
			switch op.Kind {
			case "unpivot":
				flips++
				if op.Pairs != 32 || op.ColsRead != 65 || !strings.Contains(op.String(), "cols=65/66 pairs=32") {
					t.Fatalf("%s: an unpivot over DPH/RPH reads entry and the 32 pairs: %s", cq.Name, op)
				}
				fallthrough
			case "scan", "index-scan", "index-join":
				if op.ColsTotal == 0 || op.ColsRead > op.ColsTotal {
					t.Fatalf("%s: %s must report the columns it read: %+v", cq.Name, op.Kind, op)
				}
				if strings.Contains(op.Label, "DPH") || strings.Contains(op.Label, "RPH") {
					hashReads++
					// LQ1 is two single-predicate lookups: entry plus the
					// (pred, val) pairs of the predicate's two candidate
					// columns, of the 2k+2 the table has.
					if cq.Name == "LQ1" && (op.ColsRead >= 10 || op.ColsTotal < 60) {
						t.Fatalf("%s: a single-predicate lookup read %d of %d columns: %+v", cq.Name, op.ColsRead, op.ColsTotal, op)
					}
				}
			}
			switch op.Kind {
			case "scan", "index-scan", "filter", "dedup", "limit":
				if op.RowsOut > op.RowsIn {
					t.Fatalf("%s: %s emits more than it reads: %+v", cq.Name, op.Kind, op)
				}
			case "project", "order-by":
				if op.RowsOut != op.RowsIn {
					t.Fatalf("%s: %s must be 1:1: %+v", cq.Name, op.Kind, op)
				}
			case "cross-join":
				if op.RowsOut != op.RowsIn*op.BuildRows {
					t.Fatalf("%s: cross join %d x %d produced %d", cq.Name, op.RowsIn, op.BuildRows, op.RowsOut)
				}
			}
			if op.Workers < 1 || op.ElapsedNs < 0 {
				t.Fatalf("%s: bad op %+v", cq.Name, op)
			}
			if prev := lastInScope[op.Scope]; op.Kind == "project" && prev.Kind == "project" {
				// The next arm of a UNION ALL: the CTE holds every arm's rows.
				op.RowsOut += prev.RowsOut
			}
			lastInScope[op.Scope] = op
		}
		if hashReads == 0 {
			t.Fatalf("%s: no operator read DPH or RPH:\n%s", cq.Name, an.Stats)
		}
		if want, ok := unpivots[cq.Name]; ok && (flips != want || hashReads != tablesRead[cq.Name]) {
			t.Fatalf("%s: %d unpivots and %d reads of DPH/RPH, want %d and %d:\n%s", cq.Name, flips, hashReads, want, tablesRead[cq.Name], an.Stats)
		}
		// The last operator of each CTE (of each arm, for a UNION ALL) is
		// the one that produced its rows: child out == parent in across
		// the CTE boundary.
		for cte, rows := range an.Stats.CTERows {
			last, ok := lastInScope[cte]
			if !ok {
				continue // trivial CTE with no instrumented operator
			}
			if last.RowsOut != rows {
				t.Fatalf("%s: CTE %s holds %d rows but its final operator emitted %d (%+v)",
					cq.Name, cte, rows, last.RowsOut, last)
			}
		}
		// Every access pattern pairs an estimate with an actual.
		if len(an.Patterns) == 0 {
			t.Fatalf("%s: no pattern stats", cq.Name)
		}
		for _, p := range an.Patterns {
			if p.Actual < 0 {
				t.Fatalf("%s: pattern %s executed but has no actual: %+v", cq.Name, p.Cte, p)
			}
			if p.QError < 1 {
				t.Fatalf("%s: q-error %f < 1: %+v", cq.Name, p.QError, p)
			}
			if len(p.TripleIDs) == 0 || len(p.Ests) != len(p.TripleIDs) {
				t.Fatalf("%s: malformed pattern stat %+v", cq.Name, p)
			}
		}
	}
}

// TestAnalyzeAbortedQuery: an aborted analysis still returns the
// partial profile for diagnosis.
func TestAnalyzeAbortedQuery(t *testing.T) {
	s, ds := obsStore(t, db2rdf.Options{MaxResultRows: 1})
	an, err := s.Analyze(ds.Queries[0].SPARQL)
	if err == nil {
		t.Fatal("1-row budget must trip")
	}
	if an == nil || an.Stats == nil {
		t.Fatal("aborted analysis must still carry partial stats")
	}
	if an.Stats.BudgetRowsCharged <= 1 {
		t.Fatalf("charged budget not captured: %+v", an.Stats)
	}
}
