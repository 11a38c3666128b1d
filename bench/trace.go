package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"db2rdf"
)

// span is one traced interval. The spans of one operation share op_id.
// A stage span's parent is the db2rdf.query span of the same op: the
// stage ran again right after the real call, on the same input, so the
// link is causal, not an enclosure in time.
type span struct {
	Op     int    `json:"op_id"`
	ID     int    `json:"span_id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // root spans: the op's template, or insert/delete
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansKept bounds the trace file; the totals cover every span.
const maxSpansKept = 200_000

// tracer keeps spans in memory and sums their durations by name.
type tracer struct {
	t0    time.Time
	op    int
	label string // of the current op
	next  int
	spans []span
	total map[string]int64 // ns
}

func newTracer() *tracer { return &tracer{t0: time.Now(), total: map[string]int64{}} }

// span times f under name and returns the span id and duration.
func (t *tracer) span(parent int, name string, f func()) (int, int64) {
	t.next++
	id := t.next
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	if len(t.spans) < maxSpansKept {
		sp := span{Op: t.op, ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)}
		if parent == 0 {
			sp.Label = t.label
		}
		t.spans = append(t.spans, sp)
	}
	t.total[name] += int64(end - start)
	return id, int64(end - start)
}

// nextOp starts the spans of a new operation.
func (t *tracer) nextOp(label string) {
	t.op++
	t.label = label
}

// under returns a timed that records stages as children of parent.
func (t *tracer) under(parent int) timed {
	return func(name string, f func()) { t.span(parent, name, f) }
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names above the stages.
const (
	spQuery     = "db2rdf.query"
	spHandle    = "server.handle"
	spRoundTrip = "server.roundtrip"
	spEncode    = "results.encode"
)

// tracedQuery is one traced read: the real Store.QueryContext under a
// db2rdf.query span, then the stages that call ran, replayed under
// spans of their own. Whether it compiled is read off the plan-cache
// counters, which a single client moves one op at a time.
type tracedQuery struct {
	st      *db2rdf.Store
	tr      *tracer
	plans   map[string]*compiled // bench-side twin of the plan cache
	ops     int
	hits    int
	decodes int
	failed  int
	realNs  []int64 // duration of each op's real (first) call
	// warmQuery says the db2rdf.query spans never compiled because an
	// earlier call of the same op had (http_mixed_rw): the replayed
	// compile stages are then added to the query time, not found in it.
	warmQuery bool
}

func (tq *tracedQuery) run(ctx context.Context, q *queryText) {
	tq.tr.nextOp(templateNames[q.tmpl])
	tq.ops++
	var (
		res *db2rdf.Results
		err error
	)
	hits0, _ := tq.st.PlanCacheStats()
	qid, ns := tq.tr.span(0, spQuery, func() { res, err = tq.st.QueryContext(ctx, q.text) })
	hits1, _ := tq.st.PlanCacheStats()
	hit := hits1 > hits0
	if hit {
		tq.hits++
	}
	tq.realNs = append(tq.realNs, ns)
	if err != nil || !q.correct(res) {
		tq.failed++
		return
	}
	if !tq.replay(ctx, qid, q.text, hit, len(res.Rows)) {
		tq.failed++
	}
}

// replay re-runs under parent the stages the real call ran: all seven
// after a plan-cache miss, execute and decode after a hit.
func (tq *tracedQuery) replay(ctx context.Context, parent int, text string, hit bool, wantRows int) bool {
	snap := tq.st.Internal().Snapshot()
	c := tq.plans[text]
	if !hit || c == nil {
		run := untimed
		if !hit {
			run = tq.tr.under(parent)
		}
		var err error
		if c, err = compileChain(tq.st, snap, text, run); err != nil {
			return false
		}
		tq.plans[text] = c
	}
	res, n, err := execChain(ctx, tq.st, snap, c, tq.tr.under(parent))
	tq.decodes += n
	return err == nil && len(res.Rows) == wantRows
}

// stageMetrics turns the span totals into mean microseconds per read
// op. Means add up: query = self + the stages that ran.
func (tq *tracedQuery) stageMetrics(m metricSet) {
	if tq.ops == 0 {
		return
	}
	mean := func(name string) float64 { return usec(float64(tq.tr.total[name])) / float64(tq.ops) }
	query := mean(spQuery)
	if tq.warmQuery {
		for _, st := range compileStages {
			query += mean(st)
		}
	}
	self := query
	for _, st := range append(append([]string(nil), compileStages...), stExec, stDecode) {
		self -= mean(st)
	}
	m.set("sparql.parse_us", mean(stParse))
	m.set("optimizer.optimize_us", mean(stOptimize))
	m.set("translator.plan_us", mean(stPlan))
	m.set("translator.sqlgen_us", mean(stSQLGen))
	m.set("rel.parse_us", mean(stRelParse))
	m.set("rel.exec_us", mean(stExec))
	m.set("dict.decode_us", mean(stDecode))
	m.set("db2rdf.query_us", query)
	m.set("db2rdf.self_us", self)
	m.set("db2rdf.plan_cache_hit_ratio", float64(tq.hits)/float64(tq.ops))
	m.set("dict.decodes_per_op", float64(tq.decodes)/float64(tq.ops))
	if tq.decodes > 0 {
		m.set("dict.decode_ns_per_term", float64(tq.tr.total[stDecode])/float64(tq.decodes))
	}
}

// overheadRatio sets trace.overhead_ratio: the median real call of the
// traced pass over that of the untraced pass before it.
func (tq *tracedQuery) overheadRatio(m metricSet, untraced *summary) {
	if base := percentile(untraced.reads, 50); base > 0 {
		m.set("trace.overhead_ratio", percentile(sortInt64(tq.realNs), 50)/base)
	}
}

// analyzePass runs Store.Analyze once per checked text for the two
// count-based plan-quality metrics: rows the scans touched per row
// returned, and the optimizer's q-error per access pattern.
func analyzePass(st *db2rdf.Store, p *plan, m metricSet) error {
	var scanned, returned int64
	var logSum, maxQ float64
	patterns := 0
	for i := range p.texts {
		if p.texts[i].exp == nil {
			continue
		}
		an, err := st.Analyze(p.texts[i].text)
		if err != nil {
			return fmt.Errorf("analyze %s: %w", templateNames[p.texts[i].tmpl], err)
		}
		for _, o := range an.Stats.Ops {
			// The operators that read a base table: a scan looks at
			// RowsIn rows, an index probe at one entry per probing row
			// or at every row it fetches, whichever is more.
			if o.Kind == "scan" || o.Kind == "index-scan" || o.Kind == "index-join" ||
				(o.Kind == "join-on" && strings.HasPrefix(o.Label, "index")) {
				scanned += max(o.RowsIn, o.RowsOut)
			}
		}
		returned += an.Stats.Rows
		for _, ps := range an.Patterns {
			if ps.QError > 0 {
				logSum += math.Log(ps.QError)
				maxQ = math.Max(maxQ, ps.QError)
				patterns++
			}
		}
	}
	m.set("rel.rows_scanned_per_row_returned", float64(scanned)/math.Max(1, float64(returned)))
	if patterns > 0 {
		m.set("optimizer.qerror_geomean", math.Exp(logSum/float64(patterns)))
		m.set("optimizer.qerror_max", maxQ)
	}
	return nil
}

// The allocation count averages over allocPassOps ops, or as many as
// fit in allocPassTime.
const (
	allocPassOps  = 2000
	allocPassTime = time.Second
)

// allocPass counts heap allocations per op around bare calls of the
// workload's entry point: no checking, one goroutine.
func allocPass(call func(i int), m metricSet) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 0
	for t0 := time.Now(); n < allocPassOps && time.Since(t0) < allocPassTime; n++ {
		call(n)
	}
	runtime.ReadMemStats(&after)
	m.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n))
	m.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}
