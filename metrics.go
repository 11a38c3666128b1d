package db2rdf

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"db2rdf/internal/store"
)

// Store-level runtime metrics. Every counter is an atomic touched on
// the serving paths with single fetch-and-add instructions, so the
// registry costs a few nanoseconds per query and is always on — there
// is no enable switch to forget. Metrics cover the public query entry
// points (Query, QueryContext, AnalyzeContext, and QueryGraph count
// their top-level call once; the secondary queries they run internally
// are not double-counted) and the load paths (Insert and the Load
// family feed triple count and wall time).
//
// Export: Metrics implements expvar.Var (String returns the Snapshot
// as JSON), so `expvar.Publish("db2rdf", store.Metrics())` works
// as-is; WritePrometheus emits the same numbers in Prometheus text
// exposition format.

// latencyBuckets are the upper bounds (inclusive) of the query-duration
// histogram, in nanoseconds; the final implicit bucket is +Inf.
var latencyBuckets = []int64{
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// Metrics is the store's metrics registry. All methods are safe for
// concurrent use; the zero value is ready (a Store wires its plan
// cache in at Open).
type Metrics struct {
	queries     atomic.Uint64 // queries served (success or failure)
	queryErrors atomic.Uint64 // queries that returned any error
	rowsEmitted atomic.Uint64 // decoded result rows returned to callers
	queryNanos  atomic.Int64  // total wall time across queries
	slowQueries atomic.Uint64 // queries at or over SlowQueryThreshold

	// Governance aborts by type.
	abortCanceled  atomic.Uint64
	abortDeadline  atomic.Uint64
	abortRowBudget atomic.Uint64
	abortMemBudget atomic.Uint64
	abortPanic     atomic.Uint64

	latency [7]atomic.Uint64 // len(latencyBuckets)+1, last = +Inf

	triplesLoaded atomic.Uint64 // triples ingested by Insert/Load*
	loadNanos     atomic.Int64  // total wall time across loads

	updates        atomic.Uint64 // update requests served (success or failure)
	updateErrors   atomic.Uint64 // update requests that returned any error
	updateNanos    atomic.Int64  // total wall time across update requests
	deletedTriples atomic.Uint64 // triples removed by updates and Delete calls

	plans *planCache   // hit/miss/eviction counters re-exported
	inner *store.Store // snapshot epoch / compaction / dead-row gauges
}

// Snapshot is a point-in-time copy of the registry, suitable for JSON
// encoding. Histogram buckets are cumulative counts (Prometheus
// convention: each bucket includes all smaller ones; the last is the
// total).
type Snapshot struct {
	QueriesServed uint64  `json:"queries_served"`
	QueryErrors   uint64  `json:"query_errors"`
	RowsEmitted   uint64  `json:"rows_emitted"`
	QuerySeconds  float64 `json:"query_seconds_total"`
	SlowQueries   uint64  `json:"slow_queries"`

	AbortsCanceled     uint64 `json:"aborts_canceled"`
	AbortsDeadline     uint64 `json:"aborts_deadline"`
	AbortsRowBudget    uint64 `json:"aborts_row_budget"`
	AbortsMemoryBudget uint64 `json:"aborts_memory_budget"`
	AbortsPanic        uint64 `json:"aborts_panic"`

	// LatencyBucketsNs are the histogram bounds; LatencyCounts[i] is
	// the cumulative count of queries with duration <= bound i, with
	// one extra trailing +Inf bucket equal to QueriesServed.
	LatencyBucketsNs []int64  `json:"latency_buckets_ns"`
	LatencyCounts    []uint64 `json:"latency_counts"`

	TriplesLoaded     uint64  `json:"triples_loaded"`
	LoadSeconds       float64 `json:"load_seconds_total"`
	LoadTriplesPerSec float64 `json:"load_triples_per_sec"`

	UpdatesServed  uint64  `json:"updates_served"`
	UpdateErrors   uint64  `json:"update_errors"`
	UpdateSeconds  float64 `json:"update_seconds_total"`
	DeletedTriples uint64  `json:"deleted_triples"`

	// SnapshotEpoch is the epoch of the currently published store
	// snapshot and PlanEpoch its plan epoch, the version cached plans
	// are validated against; CompactionsTotal counts publish-time chunk
	// compactions and DeadRows the currently tombstoned rows across the
	// four relations.
	SnapshotEpoch    uint64 `json:"snapshot_epoch"`
	PlanEpoch        uint64 `json:"plan_epoch"`
	CompactionsTotal int64  `json:"compactions_total"`
	DeadRows         int    `json:"dead_rows"`

	// Storage gauges: resident bytes of the four relations, resident
	// bytes of the dictionary id→term store, and the process-wide count
	// of column chunks sealed into the compressed representation.
	TableResidentBytes int64 `json:"table_resident_bytes"`
	DictResidentBytes  int64 `json:"dict_resident_bytes"`
	EncodedChunksTotal int64 `json:"encoded_chunks_total"`

	PlanCacheHits           uint64 `json:"plan_cache_hits"`
	PlanCacheMisses         uint64 `json:"plan_cache_misses"`
	PlanCacheSize           int    `json:"plan_cache_size"`
	PlanCacheInserts        uint64 `json:"plan_cache_inserts"`
	PlanCacheCapEvictions   uint64 `json:"plan_cache_cap_evictions"`
	PlanCacheStaleEvictions uint64 `json:"plan_cache_stale_evictions"`

	// Durability counters (all zero when the store has no DataDir).
	DurabilityEnabled        bool      `json:"durability_enabled"`
	WALAppends               uint64    `json:"wal_appends"`
	WALBytes                 int64     `json:"wal_bytes"`
	FsyncCount               uint64    `json:"wal_fsync_count"`
	FsyncSeconds             float64   `json:"wal_fsync_seconds_total"`
	FsyncBucketsS            []float64 `json:"wal_fsync_buckets_s,omitempty"`
	FsyncCounts              []uint64  `json:"wal_fsync_counts,omitempty"`
	SnapshotWrites           uint64    `json:"snapshot_writes"`
	SnapshotErrors           uint64    `json:"snapshot_errors"`
	SnapshotWriteSeconds     float64   `json:"snapshot_write_seconds_total"`
	RecoveryTruncatedRecords uint64    `json:"recovery_truncated_records"`
	RecoverSeconds           float64   `json:"recover_seconds"`
	ReplayedRecords          uint64    `json:"replayed_records"`
	LastSnapshotEpoch        uint64    `json:"last_snapshot_epoch"`
}

// Metrics returns the store's metrics registry.
func (s *Store) Metrics() *Metrics { return s.metrics }

// observeQueryMetrics records one served query. Rows is the decoded
// result row count (0 on failure).
func (m *Metrics) observeQuery(dur time.Duration, rows int, err error) {
	m.queries.Add(1)
	m.queryNanos.Add(int64(dur))
	m.rowsEmitted.Add(uint64(rows))
	d := int64(dur)
	i := 0
	for i < len(latencyBuckets) && d > latencyBuckets[i] {
		i++
	}
	m.latency[i].Add(1)
	if err == nil {
		return
	}
	m.queryErrors.Add(1)
	var be *BudgetError
	var pe *PanicError
	switch {
	case errors.As(err, &be):
		if be.Budget == "memory" {
			m.abortMemBudget.Add(1)
		} else {
			m.abortRowBudget.Add(1)
		}
	case errors.Is(err, ErrDeadlineExceeded):
		m.abortDeadline.Add(1)
	case errors.Is(err, ErrCanceled):
		m.abortCanceled.Add(1)
	case errors.As(err, &pe):
		m.abortPanic.Add(1)
	}
}

// observeUpdate records one SPARQL update request. Update wall time is
// kept out of queryNanos: the query-duration histogram's _sum must
// cover exactly the requests its buckets count (scrape-clean
// invariant), and updates never enter those buckets.
func (m *Metrics) observeUpdate(dur time.Duration, deleted int, err error) {
	m.updates.Add(1)
	m.updateNanos.Add(int64(dur))
	if deleted > 0 {
		m.deletedTriples.Add(uint64(deleted))
	}
	if err != nil {
		m.updateErrors.Add(1)
	}
}

// observeLoad records one load call.
func (m *Metrics) observeLoad(dur time.Duration, triples int) {
	if triples > 0 {
		m.triplesLoaded.Add(uint64(triples))
	}
	m.loadNanos.Add(int64(dur))
}

// Snapshot returns a point-in-time copy of every metric. Counters are
// read individually (not under one lock), so numbers racing with live
// traffic may be off by the in-flight queries — each counter is itself
// exact.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		QueriesServed: m.queries.Load(),
		QueryErrors:   m.queryErrors.Load(),
		RowsEmitted:   m.rowsEmitted.Load(),
		QuerySeconds:  time.Duration(m.queryNanos.Load()).Seconds(),
		SlowQueries:   m.slowQueries.Load(),

		AbortsCanceled:     m.abortCanceled.Load(),
		AbortsDeadline:     m.abortDeadline.Load(),
		AbortsRowBudget:    m.abortRowBudget.Load(),
		AbortsMemoryBudget: m.abortMemBudget.Load(),
		AbortsPanic:        m.abortPanic.Load(),

		TriplesLoaded: m.triplesLoaded.Load(),
		LoadSeconds:   time.Duration(m.loadNanos.Load()).Seconds(),

		UpdatesServed:  m.updates.Load(),
		UpdateErrors:   m.updateErrors.Load(),
		UpdateSeconds:  time.Duration(m.updateNanos.Load()).Seconds(),
		DeletedTriples: m.deletedTriples.Load(),
	}
	if s.LoadSeconds > 0 {
		s.LoadTriplesPerSec = float64(s.TriplesLoaded) / s.LoadSeconds
	}
	s.LatencyBucketsNs = append([]int64(nil), latencyBuckets...)
	s.LatencyCounts = make([]uint64, len(m.latency))
	var cum uint64
	for i := range m.latency {
		cum += m.latency[i].Load()
		s.LatencyCounts[i] = cum
	}
	if m.inner != nil {
		sn := m.inner.Snapshot()
		s.SnapshotEpoch = sn.Epoch()
		s.PlanEpoch = sn.PlanEpoch()
		s.CompactionsTotal = m.inner.Compactions()
		s.DeadRows = m.inner.DeadRows()
		s.TableResidentBytes = sn.TableBytes()
		s.DictResidentBytes = sn.DictBytes()
		s.EncodedChunksTotal = store.EncodedChunks()
		if ds := m.inner.DurabilityStats(); ds.Enabled {
			s.DurabilityEnabled = true
			s.WALAppends = ds.WALAppends
			s.WALBytes = ds.WALBytes
			s.FsyncCount = ds.FsyncCount
			s.FsyncSeconds = ds.FsyncSeconds
			s.FsyncBucketsS = append([]float64(nil), store.FsyncBuckets...)
			// Cumulative counts, Prometheus convention.
			s.FsyncCounts = make([]uint64, len(ds.FsyncHist))
			var fcum uint64
			for i := range ds.FsyncHist {
				fcum += ds.FsyncHist[i]
				s.FsyncCounts[i] = fcum
			}
			s.SnapshotWrites = ds.SnapshotWrites
			s.SnapshotErrors = ds.SnapshotErrors
			s.SnapshotWriteSeconds = ds.SnapshotWriteSeconds
			s.RecoveryTruncatedRecords = ds.RecoveryTruncatedRecords
			s.RecoverSeconds = ds.RecoverSeconds
			s.ReplayedRecords = ds.ReplayedRecords
			s.LastSnapshotEpoch = ds.LastSnapshotEpoch
		}
	}
	if m.plans != nil {
		ps := m.plans.statsFull()
		s.PlanCacheHits = ps.Hits
		s.PlanCacheMisses = ps.Misses
		s.PlanCacheSize = ps.Size
		s.PlanCacheInserts = ps.Inserts
		s.PlanCacheCapEvictions = ps.CapEvictions
		s.PlanCacheStaleEvictions = ps.StaleEvictions
	}
	return s
}

// String renders the snapshot as JSON, making *Metrics an expvar.Var.
func (m *Metrics) String() string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// promEscapeLabel escapes a label value for the Prometheus text
// exposition format: backslash, double quote and newline must be
// escaped inside the double-quoted value.
func promEscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WritePrometheus writes the metrics in Prometheus text exposition
// format (counters, gauges, and the query-duration histogram). The
// output is scrape-clean: every series carries # HELP and # TYPE
// lines, label values are escaped, histogram buckets are cumulative
// with a final le="+Inf" sample, and each histogram's _count equals
// its +Inf bucket (both derived from the same cumulative counts, so
// the invariant holds even while traffic races the scrape).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counter := func(name, help string, v uint64) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	labeled := func(name, label, value string, v uint64) {
		p("%s{%s=\"%s\"} %d\n", name, label, promEscapeLabel(value), v)
	}
	counter("db2rdf_queries_served_total", "Queries served (success or failure).", s.QueriesServed)
	counter("db2rdf_query_errors_total", "Queries that returned an error.", s.QueryErrors)
	counter("db2rdf_rows_emitted_total", "Decoded result rows returned to callers.", s.RowsEmitted)
	counter("db2rdf_slow_queries_total", "Queries at or over Options.SlowQueryThreshold.", s.SlowQueries)
	p("# HELP db2rdf_query_seconds_total Total query wall time.\n# TYPE db2rdf_query_seconds_total counter\ndb2rdf_query_seconds_total %g\n", s.QuerySeconds)
	p("# HELP db2rdf_query_aborts_total Governance aborts by type.\n# TYPE db2rdf_query_aborts_total counter\n")
	labeled("db2rdf_query_aborts_total", "type", "canceled", s.AbortsCanceled)
	labeled("db2rdf_query_aborts_total", "type", "deadline", s.AbortsDeadline)
	labeled("db2rdf_query_aborts_total", "type", "row_budget", s.AbortsRowBudget)
	labeled("db2rdf_query_aborts_total", "type", "memory_budget", s.AbortsMemoryBudget)
	labeled("db2rdf_query_aborts_total", "type", "panic", s.AbortsPanic)
	p("# HELP db2rdf_query_duration_seconds Query duration histogram.\n# TYPE db2rdf_query_duration_seconds histogram\n")
	for i, b := range s.LatencyBucketsNs {
		p("db2rdf_query_duration_seconds_bucket{le=\"%g\"} %d\n", time.Duration(b).Seconds(), s.LatencyCounts[i])
	}
	histTotal := s.LatencyCounts[len(s.LatencyCounts)-1]
	p("db2rdf_query_duration_seconds_bucket{le=\"+Inf\"} %d\n", histTotal)
	p("db2rdf_query_duration_seconds_sum %g\n", s.QuerySeconds)
	p("db2rdf_query_duration_seconds_count %d\n", histTotal)
	counter("db2rdf_updates_total", "SPARQL update requests served (success or failure).", s.UpdatesServed)
	counter("db2rdf_update_errors_total", "SPARQL update requests that returned an error.", s.UpdateErrors)
	p("# HELP db2rdf_update_seconds_total Total update wall time.\n# TYPE db2rdf_update_seconds_total counter\ndb2rdf_update_seconds_total %g\n", s.UpdateSeconds)
	counter("db2rdf_deleted_triples_total", "Triples removed by SPARQL updates.", s.DeletedTriples)
	counter("db2rdf_triples_loaded_total", "Triples ingested by Insert and the Load entry points.", s.TriplesLoaded)
	p("# HELP db2rdf_snapshot_epoch Epoch of the currently published store snapshot.\n# TYPE db2rdf_snapshot_epoch gauge\ndb2rdf_snapshot_epoch %d\n", s.SnapshotEpoch)
	p("# HELP db2rdf_plan_epoch Plan epoch of the currently published store snapshot; cached plans are valid within one.\n# TYPE db2rdf_plan_epoch gauge\ndb2rdf_plan_epoch %d\n", s.PlanEpoch)
	counter("db2rdf_compactions_total", "Publish-time chunk compactions across the four relations.", uint64(s.CompactionsTotal))
	p("# HELP db2rdf_dead_rows Currently tombstoned rows across the four relations.\n# TYPE db2rdf_dead_rows gauge\ndb2rdf_dead_rows %d\n", s.DeadRows)
	p("# HELP db2rdf_table_resident_bytes Resident bytes of the four DB2RDF relations.\n# TYPE db2rdf_table_resident_bytes gauge\ndb2rdf_table_resident_bytes %d\n", s.TableResidentBytes)
	p("# HELP db2rdf_dict_bytes Resident bytes of the dictionary id-to-term store.\n# TYPE db2rdf_dict_bytes gauge\ndb2rdf_dict_bytes %d\n", s.DictResidentBytes)
	counter("db2rdf_encoded_chunks_total", "Column chunks sealed into the compressed representation (process-wide).", uint64(s.EncodedChunksTotal))
	p("# HELP db2rdf_load_seconds_total Total load wall time.\n# TYPE db2rdf_load_seconds_total counter\ndb2rdf_load_seconds_total %g\n", s.LoadSeconds)
	counter("db2rdf_plan_cache_hits_total", "Compiled-plan cache hits.", s.PlanCacheHits)
	counter("db2rdf_plan_cache_misses_total", "Compiled-plan cache misses.", s.PlanCacheMisses)
	counter("db2rdf_plan_cache_inserts_total", "Compiled-plan cache inserts.", s.PlanCacheInserts)
	counter("db2rdf_plan_cache_cap_evictions_total", "Plan-cache LRU capacity evictions.", s.PlanCacheCapEvictions)
	counter("db2rdf_plan_cache_stale_evictions_total", "Plan-cache stale plan-epoch evictions.", s.PlanCacheStaleEvictions)
	p("# HELP db2rdf_plan_cache_size Cached compiled plans.\n# TYPE db2rdf_plan_cache_size gauge\ndb2rdf_plan_cache_size %d\n", s.PlanCacheSize)
	if s.DurabilityEnabled {
		counter("db2rdf_wal_appends_total", "WAL batches appended at publish.", s.WALAppends)
		counter("db2rdf_wal_bytes_total", "Bytes appended to the WAL.", uint64(s.WALBytes))
		p("# HELP db2rdf_wal_fsync_seconds WAL fsync latency histogram.\n# TYPE db2rdf_wal_fsync_seconds histogram\n")
		for i, b := range s.FsyncBucketsS {
			p("db2rdf_wal_fsync_seconds_bucket{le=\"%g\"} %d\n", b, s.FsyncCounts[i])
		}
		var fsyncTotal uint64
		if n := len(s.FsyncCounts); n > 0 {
			fsyncTotal = s.FsyncCounts[n-1]
		}
		p("db2rdf_wal_fsync_seconds_bucket{le=\"+Inf\"} %d\n", fsyncTotal)
		p("db2rdf_wal_fsync_seconds_sum %g\n", s.FsyncSeconds)
		p("db2rdf_wal_fsync_seconds_count %d\n", fsyncTotal)
		counter("db2rdf_snapshot_writes_total", "Snapshot files written.", s.SnapshotWrites)
		counter("db2rdf_snapshot_errors_total", "Snapshot writes that failed.", s.SnapshotErrors)
		p("# HELP db2rdf_snapshot_write_seconds Total snapshot serialization and write time.\n# TYPE db2rdf_snapshot_write_seconds counter\ndb2rdf_snapshot_write_seconds %g\n", s.SnapshotWriteSeconds)
		counter("db2rdf_recovery_truncated_records", "WAL records discarded as torn or unreachable at recovery.", s.RecoveryTruncatedRecords)
		counter("db2rdf_recovery_replayed_records", "WAL records replayed at recovery.", s.ReplayedRecords)
		p("# HELP db2rdf_last_snapshot_epoch Epoch of the newest on-disk snapshot.\n# TYPE db2rdf_last_snapshot_epoch gauge\ndb2rdf_last_snapshot_epoch %d\n", s.LastSnapshotEpoch)
	}
	return err
}
