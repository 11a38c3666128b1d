package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Workload names, in the order run.sh runs them.
const (
	wlWarm = "lubm_warm_point"
	wlCold = "lubm_cold_compile"
	wlSP2B = "sp2b_scan_join"
	wlHTTP = "http_mixed_rw"
)

var workloadNames = []string{wlWarm, wlCold, wlSP2B, wlHTTP}

// metricDef is one named metric with its unit. BENCHMARK.json repeats
// these lists; bench_test.go pins the two copies to each other.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run (--trace 0) prints, for every
// workload. Metrics that exist on http_mixed_rw only (write latency,
// recovery, disk bytes, lost writes) live in perLayer: the result line
// of a run carries every listed metric, and a metric three workloads
// cannot measure cannot be gated on them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p95_us", "us"},
	{"resident_bytes_per_user_byte", "ratio"},
}

// templateNames fixes the id of every query template; client.q.<name>
// metrics and the per-op template index both use it.
var templateNames = []string{
	"LQ1", "LQ3", "LQ4", "LQ5", "LQ7", "LQ8", "LQ10", "LQ13", // point
	"LQ6", "LQ14", // wide
	"SQ2", "SQ3a", "SQ3b", "SQ3c", "SQ5a", "SQ5b", "SQ6", "SQ7", "SQ8", "SQ9", "SQ11",
}

// perLayer is what a traced run (--trace 1) prints. A metric that does
// not apply to the workload reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Compile stages, mean µs per read op (0 when the plan cache hit).
		{"sparql.parse_us", "us"},
		{"optimizer.optimize_us", "us"},
		{"translator.plan_us", "us"},
		{"translator.sqlgen_us", "us"},
		{"rel.parse_us", "us"},
		// The real Store.QueryContext call and what the stages leave over.
		{"db2rdf.query_us", "us"},
		{"db2rdf.self_us", "us"},
		{"db2rdf.plan_cache_hit_ratio", "ratio"},
		{"db2rdf.plan_cache_stale_evictions", "count"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.gc_pause_ms", "ms"},
		// Execution and decode.
		{"rel.exec_us", "us"},
		{"rel.rows_scanned_per_row_returned", "ratio"},
		{"dict.decode_us", "us"},
		{"dict.decodes_per_op", "count"},
		{"dict.decode_ns_per_term", "ns"},
		{"optimizer.qerror_geomean", "ratio"},
		{"optimizer.qerror_max", "ratio"},
		// HTTP edge (http_mixed_rw).
		{"server.handle_us", "us"},
		{"server.self_us", "us"},
		{"server.wire_us", "us"},
		{"results.encode_us", "us"},
		{"results.bytes_per_op", "B"},
		// Write path (http_mixed_rw).
		{"sparql.parse_update_us", "us"},
		{"store.update_us", "us"},
		{"wal.bytes_per_triple_written", "B"},
		{"wal.appends", "count"},
		{"wal.fsyncs", "count"},
		{"store.snapshot_writes", "count"},
		{"store.snapshot_write_s", "s"},
		{"store.compactions", "count"},
		{"store.dead_rows_end", "count"},
		// Set-up.
		{"gen.generate_s", "s"},
		{"rdf.parse_triples_per_s", "1/s"},
		{"store.load_triples_per_s", "1/s"},
		{"store.table_bytes", "B"},
		{"dict.bytes", "B"},
		{"dict.terms", "count"},
		// Durability (http_mixed_rw; end-to-end there, but see endToEnd).
		{"client.write_p50_us", "us"},
		{"client.write_p95_us", "us"},
		{"client.recover_s", "s"},
		{"store.recover_s", "s"},
		{"store.replayed_records", "count"},
		{"store.disk_bytes_per_user_byte", "ratio"},
		{"store.acked_writes_lost", "count"},
		// Generator diagnostics.
		{"client.error_rate", "ratio"},
		{"client.read_p99_us", "us"},
		{"client.read_max_us", "us"},
		{"client.overhead_us", "us"},
		{"client.clients", "count"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, t := range templateNames {
		defs = append(defs, metricDef{"client.q." + t + ".p50_us", "us"})
	}
	return defs
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds the values of one run, keyed by metric name. It
// starts with every declared metric at 0 and refuses any other name.
type metricSet map[string]metricValue

func newMetricSet(defs []metricDef) metricSet {
	m := metricSet{}
	for _, d := range defs {
		m[d.name] = metricValue{Unit: d.unit}
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	m[name] = metricValue{Value: v, Unit: old.Unit}
}

func (m metricSet) get(name string) float64 { return m[name].Value }

// benchmarkFile is the part of BENCHMARK.json the runner itself reads
// (for -all and -repeat): the run length and each metric's bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
