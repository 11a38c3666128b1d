package db2rdf_test

// TestBenchBaseline is the `make bench-legacy` entry point: it measures bulk
// load, cold-plan query and warm-plan (cache-hit) query latencies with
// testing.Benchmark and writes them as JSON to the file named by the
// DB2RDF_BENCH_OUT environment variable (BENCH_PR10.json from the
// Makefile). Without the variable it is skipped, so plain `go test`
// stays fast.
//
// Besides ns/op each point carries bytes/op and allocs/op, and
// non-latency points record the resident size of a loaded LUBM store
// under the encoded-columnar (default), raw-columnar and legacy row
// layouts — plus the front-coded vs raw dictionary, the on-disk
// snapshot size, and after snapshot-publishing write churn — so the
// memory claims of the compressed chunks, the columnar storage and
// the COW snapshot layer are tracked across PRs. The *_ratio points
// compare warm, concurrent and selective-scan latency between the
// encoded and raw chunk layouts.
// The query_during_load_p50/p99 points record reader latency while a
// concurrent bulk load keeps publishing snapshots (the headline of the
// lock-free read path), and snapshot_publish the writer-side cost of
// one insert + publish. The http_query_* points serve the same warm
// query over the SPARQL HTTP endpoint (loopback), isolating the
// protocol + JSON-serialization overhead above the in-process path.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/server"
)

type benchPoint struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_per_op"`
	N        int     `json:"iterations"`
	BytesOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsOp int64   `json:"allocs_per_op,omitempty"`
}

func latencyPoint(name string, r testing.BenchmarkResult) benchPoint {
	return benchPoint{
		Name:     name,
		NsOp:     float64(r.NsPerOp()),
		N:        r.N,
		BytesOp:  r.AllocedBytesPerOp(),
		AllocsOp: r.AllocsPerOp(),
	}
}

func TestBenchBaseline(t *testing.T) {
	out := os.Getenv("DB2RDF_BENCH_OUT")
	if out == "" {
		t.Skip("set DB2RDF_BENCH_OUT=<file> to record benchmark baselines")
	}
	ds := lubmData()
	q := ds.Queries[0].SPARQL

	load := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := db2rdf.Open(db2rdf.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.LoadTriples(ds.Triples); err != nil {
				b.Fatal(err)
			}
		}
	})

	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ResetPlanCache()
			if _, err := s.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The same warm-plan query served over the SPARQL HTTP endpoint:
	// one ns/op point for the full request (admission, execution, JSON
	// serialization, loopback transport), plus sequential p50/p99
	// request latencies, so the endpoint's overhead above the
	// in-process warm point is tracked across PRs.
	srv := httptest.NewServer(server.New(server.Config{Store: s}))
	httpURL := srv.URL + "/sparql?query=" + url.QueryEscape(q)
	httpGet := func() error {
		resp, err := http.Get(httpURL)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("endpoint returned %d", resp.StatusCode)
		}
		return nil
	}
	if err := httpGet(); err != nil {
		t.Fatal(err)
	}
	httpWarm := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := httpGet(); err != nil {
				b.Fatal(err)
			}
		}
	})
	const httpSamples = 300
	httpLat := make([]time.Duration, 0, httpSamples)
	for i := 0; i < httpSamples; i++ {
		t0 := time.Now()
		if err := httpGet(); err != nil {
			t.Fatal(err)
		}
		httpLat = append(httpLat, time.Since(t0))
	}
	sort.Slice(httpLat, func(i, j int) bool { return httpLat[i] < httpLat[j] })
	httpP50 := httpLat[len(httpLat)/2]
	httpP99 := httpLat[len(httpLat)*99/100]
	srv.Close()

	// Instrumented-vs-disabled delta: a second store whose slow-query
	// log forces per-operator profiling on every query (threshold high
	// enough that the callback never fires), against the same warm plan.
	instr, err := db2rdf.Open(db2rdf.Options{
		SlowQueryThreshold: time.Hour,
		SlowQueryLog:       func(db2rdf.SlowQuery) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := instr.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	if _, err := instr.Query(q); err != nil {
		t.Fatal(err)
	}
	warmInstr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := instr.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Resident footprints of the same LUBM dataset under three table
	// layouts — encoded columnar (the default: chunks seal into the
	// FoR bit-packed form at publish), raw columnar (encoding off),
	// and the legacy row layout — plus the dictionary under its
	// front-coded and raw []Term layouts. Tables and dictionary are
	// reported separately (TableBytes / DictBytes).
	colBytes := s.TableBytes()
	dictBytes := s.DictBytes()
	dictRawBytes := s.Internal().Dict.RawBytes()
	rel.SetChunkEncoding(false)
	rawColStore, err := db2rdf.Open(db2rdf.Options{})
	if err == nil {
		err = rawColStore.LoadTriples(ds.Triples)
	}
	rel.SetChunkEncoding(true)
	if err != nil {
		t.Fatal(err)
	}
	rawColBytes := rawColStore.TableBytes()
	rel.SetDefaultStorage(rel.StorageRows)
	rowStore, err := db2rdf.Open(db2rdf.Options{})
	rel.SetDefaultStorage(rel.StorageColumnar)
	if err != nil {
		t.Fatal(err)
	}
	if err := rowStore.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	rowBytes := rowStore.TableBytes()

	// Warm-plan and concurrent query latency against the raw-columnar
	// store: the encoded-vs-raw ratios below are the flat-scan-latency
	// acceptance numbers for the compressed chunk representation.
	if _, err := rawColStore.Query(q); err != nil {
		t.Fatal(err)
	}
	warmRaw := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rawColStore.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	concurrent := func(st *db2rdf.Store) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.SetParallelism(4)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := st.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
	concEnc := concurrent(s)
	concRaw := concurrent(rawColStore)

	// Selective scan with zone maps defeated, at the rel level, sealed
	// (encoded) vs raw chunks — the same comparison without plan-cache
	// or dictionary work in the loop.
	relScan := func(sealed bool) testing.BenchmarkResult {
		db := rel.NewDB()
		tb, err := db.CreateTable("sf", rel.Schema{{Name: "v", Type: rel.TInt}, {Name: "pad", Type: rel.TInt}})
		if err != nil {
			t.Fatal(err)
		}
		const n = 1 << 18
		rows := make([]rel.Row, n)
		for i := range rows {
			rows[i] = rel.Row{rel.Int(int64((i*2654435761 + 12345) % n)), rel.Int(int64(i))}
		}
		if _, err := tb.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
		if sealed {
			tb.Publish()
		}
		const sq = "SELECT T.pad FROM sf AS T WHERE T.v = 70000"
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := db.Query(sq)
				if err != nil || len(rs.Rows) != 1 {
					b.Fatalf("err=%v rows=%d", err, len(rs.Rows))
				}
			}
		})
	}
	scanRaw := relScan(false)
	scanSealed := relScan(true)

	// Delete throughput and post-delete scan latency: each iteration
	// deletes a batch of triples via SPARQL update from a pre-loaded
	// store (reloading outside the timer), then the scan point reruns
	// the warm query against a store that carries tombstones.
	const delBatch = 200
	var victims []rdf.Triple
	seen := map[rdf.Triple]bool{}
	for _, tr := range ds.Triples {
		if len(victims) == delBatch {
			break
		}
		if !seen[tr] {
			seen[tr] = true
			victims = append(victims, tr)
		}
	}
	deleted := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ds2, err := db2rdf.Open(db2rdf.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := ds2.LoadTriples(ds.Triples); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := ds2.DeleteTriples(victims)
			if err != nil {
				b.Fatal(err)
			}
			if res != len(victims) {
				b.Fatalf("deleted %d, want %d", res, len(victims))
			}
		}
	})
	tombStore, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tombStore.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	if n := len(ds.Triples) / 10; n > 0 {
		if _, err := tombStore.DeleteTriples(ds.Triples[:n]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tombStore.Query(q); err != nil {
		t.Fatal(err)
	}
	scanAfterDelete := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tombStore.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Reader latency while a concurrent bulk load publishes snapshots,
	// plus the writer-side publish cost and the resident footprint after
	// the write churn (tracks COW memory overhead across PRs).
	churnStore, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := churnStore.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	if _, err := churnStore.Query(q); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var churnWg sync.WaitGroup
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		defer close(stop)
		loadChurn(t, churnStore, 20, 1000)
	}()
	loadP50, loadP99 := readLatencies(t, churnStore, q, stop)
	churnWg.Wait()
	churnBytes := churnStore.TableBytes()

	publish := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		inner := churnStore.Internal()
		inner.Lock()
		defer inner.Unlock()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := inner.InsertLocked(rdf.NewTriple(
				rdf.NewIRI(fmt.Sprintf("http://pub/s%d", i)),
				rdf.NewIRI("http://pub/p"),
				rdf.NewLiteral(fmt.Sprintf("v%d", i)),
			)); err != nil {
				b.Fatal(err)
			}
			inner.PublishLocked()
		}
	})

	// Durability: cold-start recovery from an epoch-aligned snapshot,
	// WAL-only replay throughput, and the WAL-on publish overhead
	// (compare against the in-memory snapshot_publish point above).
	snapDir := t.TempDir()
	durStore, err := db2rdf.Open(db2rdf.Options{DataDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := durStore.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	if err := durStore.Close(); err != nil {
		t.Fatal(err)
	}
	recoverSnap := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rs, err := db2rdf.Open(db2rdf.Options{DataDir: snapDir})
			if err != nil {
				b.Fatal(err)
			}
			if err := rs.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// On-disk size of the epoch snapshot just written: tracks the
	// encoded (marker-tagged packed) table sections across PRs.
	var snapFileBytes int64
	snapFiles, err := os.ReadDir(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range snapFiles {
		if filepath.Ext(f.Name()) == ".snap" {
			fi, err := f.Info()
			if err != nil {
				t.Fatal(err)
			}
			snapFileBytes += fi.Size()
		}
	}

	// WAL-only replay: load into a durable store and "crash" (no Close,
	// so no snapshot exists); each iteration recovers a fresh copy of
	// the segment purely through replay.
	walDir := t.TempDir()
	crashStore, err := db2rdf.Open(db2rdf.Options{DataDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := crashStore.LoadTriples(ds.Triples); err != nil {
		t.Fatal(err)
	}
	segs, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var replayed uint64
	recoverWAL := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rdir := b.TempDir()
			for _, f := range segs {
				data, err := os.ReadFile(filepath.Join(walDir, f.Name()))
				if err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(rdir, f.Name()), data, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			rs, err := db2rdf.Open(db2rdf.Options{DataDir: rdir})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			replayed = rs.Internal().DurabilityStats().ReplayedRecords
			if replayed == 0 {
				b.Fatal("WAL-only recovery replayed nothing")
			}
			if err := rs.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})

	// Same dataset as the in-memory snapshot_publish point above, so the
	// delta between the two is the WAL capture + append cost.
	publishWAL := testing.Benchmark(func(b *testing.B) {
		b.StopTimer()
		ws, err := db2rdf.Open(db2rdf.Options{DataDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer ws.Close()
		if err := ws.LoadTriples(ds.Triples); err != nil {
			b.Fatal(err)
		}
		inner := ws.Internal()
		inner.Lock()
		defer inner.Unlock()
		b.StartTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := inner.InsertLocked(rdf.NewTriple(
				rdf.NewIRI(fmt.Sprintf("http://wal/s%d", i)),
				rdf.NewIRI("http://wal/p"),
				rdf.NewLiteral(fmt.Sprintf("v%d", i)),
			)); err != nil {
				b.Fatal(err)
			}
			if err := inner.PublishLocked(); err != nil {
				b.Fatal(err)
			}
		}
	})

	points := []benchPoint{
		latencyPoint("load_lubm", load),
		latencyPoint("query_cold_plan", cold),
		latencyPoint("query_warm_plan", warm),
		latencyPoint("query_warm_plan_instrumented", warmInstr),
		latencyPoint("http_query_warm", httpWarm),
		{Name: "http_query_p50", NsOp: float64(httpP50), N: httpSamples},
		{Name: "http_query_p99", NsOp: float64(httpP99), N: httpSamples},
		latencyPoint("delete_batch_200", deleted),
		latencyPoint("query_warm_plan_after_delete", scanAfterDelete),
		latencyPoint("snapshot_publish", publish),
		latencyPoint("snapshot_publish_wal", publishWAL),
		{Name: "recover_snapshot_ms", NsOp: float64(recoverSnap.NsPerOp()) / 1e6, N: recoverSnap.N},
		{Name: "wal_replay_rate", NsOp: float64(replayed) / (float64(recoverWAL.NsPerOp()) / 1e9), N: recoverWAL.N},
		{Name: "query_during_load_p50", NsOp: float64(loadP50), N: 1},
		{Name: "query_during_load_p99", NsOp: float64(loadP99), N: 1},
		{Name: "table_resident_bytes", NsOp: float64(colBytes), N: 1},
		{Name: "table_resident_bytes_rawcolumnar", NsOp: float64(rawColBytes), N: 1},
		{Name: "table_resident_bytes_rowlayout", NsOp: float64(rowBytes), N: 1},
		{Name: "table_resident_bytes_after_write_churn", NsOp: float64(churnBytes), N: 1},
		{Name: "dict_resident_bytes", NsOp: float64(dictBytes), N: 1},
		{Name: "dict_resident_bytes_raw", NsOp: float64(dictRawBytes), N: 1},
		{Name: "encoded_chunks_total", NsOp: float64(rel.SealedChunksTotal()), N: 1},
		{Name: "snapshot_file_bytes", NsOp: float64(snapFileBytes), N: 1},
		latencyPoint("query_warm_plan_rawcolumnar", warmRaw),
		latencyPoint("concurrent_query_encoded", concEnc),
		latencyPoint("concurrent_query_rawcolumnar", concRaw),
		latencyPoint("scan_selective_encoded", scanSealed),
		latencyPoint("scan_selective_rawcolumnar", scanRaw),
	}
	if warm.NsPerOp() > 0 {
		points = append(points, benchPoint{
			Name: "instrumentation_overhead_ratio",
			NsOp: float64(warmInstr.NsPerOp()) / float64(warm.NsPerOp()),
			N:    1,
		})
	}
	// Encoded-vs-raw latency ratios (the <= 1.15x acceptance numbers
	// for the compressed chunk representation).
	if warmRaw.NsPerOp() > 0 {
		points = append(points, benchPoint{
			Name: "query_warm_encoded_vs_raw_ratio",
			NsOp: float64(warm.NsPerOp()) / float64(warmRaw.NsPerOp()),
			N:    1,
		})
	}
	if concRaw.NsPerOp() > 0 {
		points = append(points, benchPoint{
			Name: "concurrent_query_encoded_vs_raw_ratio",
			NsOp: float64(concEnc.NsPerOp()) / float64(concRaw.NsPerOp()),
			N:    1,
		})
	}
	if scanRaw.NsPerOp() > 0 {
		points = append(points, benchPoint{
			Name: "scan_selective_encoded_vs_raw_ratio",
			NsOp: float64(scanSealed.NsPerOp()) / float64(scanRaw.NsPerOp()),
			N:    1,
		})
	}
	// Per-pattern estimation quality over the corpus: one point per
	// (query, access node), NsOp carrying the q-error.
	for _, cq := range ds.Queries {
		an, err := s.Analyze(cq.SPARQL)
		if err != nil {
			t.Fatalf("analyze %s: %v", cq.Name, err)
		}
		for _, p := range an.Patterns {
			points = append(points, benchPoint{
				Name: fmt.Sprintf("qerror_%s_%s", cq.Name, p.Cte),
				NsOp: p.QError,
				N:    int(p.Actual),
			})
		}
	}
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
	for _, p := range points {
		t.Logf("%-30s %14.0f ns/op (n=%d, %d B/op, %d allocs/op)", p.Name, p.NsOp, p.N, p.BytesOp, p.AllocsOp)
	}
	if rowBytes > 0 {
		t.Logf("columnar/row resident ratio: %.2fx smaller (%d vs %d bytes)",
			float64(rowBytes)/float64(colBytes), colBytes, rowBytes)
	}
}
