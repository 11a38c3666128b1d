package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/server"
)

// config is one run as the command line asked for it.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     float64
	clients   int    // closed-loop clients of an untraced run
	outDir    string // where <workload>.json and .trace.json go
	serverBin string // cmd/db2rdf-server, built by run.sh
	tmpDir    string // scratch inside the checkout
}

func (c *config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// defaultClients is the closed loop's width: callers of a library or
// an endpoint wait for each reply, and four of them is the most the
// reference box's cores leave room for beside the server.
func defaultClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// outcome is a finished run: every metric, and the op counts.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	tracer    *tracer
	slices    []slice // untraced runs: the measured phase piece by piece
}

// run measures one workload once.
func run(cfg config) (*outcome, error) {
	out := &outcome{metrics: newMetricSet(append(append([]metricDef(nil), endToEnd...), perLayer...))}
	ds := generate(cfg.workload, cfg.scale)
	out.metrics.set("gen.generate_s", ds.genS)
	var err error
	switch {
	case cfg.workload == wlHTTP && cfg.trace:
		err = traceHTTP(cfg, ds, out)
	case cfg.workload == wlHTTP:
		err = runHTTP(cfg, ds, out)
	case cfg.trace:
		err = traceInproc(cfg, ds, out)
	default:
		err = runInproc(cfg, ds, out)
	}
	return out, err
}

// storeMetrics fills the set-up and space figures of an in-process store.
func storeMetrics(m metricSet, st *db2rdf.Store, ds *dataset, loadS float64) {
	m.set("store.load_triples_per_s", float64(len(ds.triples))/loadS)
	m.set("store.table_bytes", float64(st.TableBytes()))
	m.set("dict.bytes", float64(st.DictBytes()))
	m.set("dict.terms", float64(st.Internal().Dict.Len()))
	m.set("resident_bytes_per_user_byte", float64(st.StorageBytes())/float64(ds.userBytes))
}

func runInproc(cfg config, ds *dataset, out *outcome) error {
	m := out.metrics
	if err := ds.writeNTriples(io.Discard); err != nil {
		return err
	}
	p, err := buildPlan(cfg.workload, ds, cfg.seed, cfg.clients, 0)
	if err != nil {
		return err
	}
	if err := reference(p, ds.triples); err != nil {
		return err
	}
	st, loadS, setupS, err := setupInproc(ds, p, setupRepeats)
	if err != nil {
		return err
	}
	s := summarise(p, closedLoop(p, cfg.clients, cfg.duration(), queryOp(st, p)))
	out.attempted, out.failed, out.slices = s.attempted, s.failed, s.slices
	m.set("setup_s", setupS)
	s.endToEndMetrics(m)
	s.clientMetrics(m, cfg.clients)
	storeMetrics(m, st, ds, loadS)
	return s.checkOverhead(cfg.workload)
}

// tracedShare is the part of --seconds a traced run spends tracing;
// the rest goes to an untraced pass of the same single client, which
// gives the client.* diagnostics and the base of trace.overhead_ratio.
const tracedShare = 0.75

func traceInproc(cfg config, ds *dataset, out *outcome) error {
	m := out.metrics
	var nt bytes.Buffer
	if err := ds.writeNTriples(&nt); err != nil {
		return err
	}
	t0 := time.Now()
	parsed, err := rdf.NewReader(&nt).ReadAll()
	if err != nil {
		return err
	}
	m.set("rdf.parse_triples_per_s", float64(len(parsed))/time.Since(t0).Seconds())
	parsed = nil

	p, err := buildPlan(cfg.workload, ds, cfg.seed, 1, 0)
	if err != nil {
		return err
	}
	if err := reference(p, ds.triples); err != nil {
		return err
	}
	st, loadS, _, err := setupInproc(ds, p, 1)
	if err != nil {
		return err
	}
	storeMetrics(m, st, ds, loadS)

	d := cfg.duration()
	untraced := summarise(p, closedLoop(p, 1, time.Duration(float64(d)*(1-tracedShare)), queryOp(st, p)))
	untraced.clientMetrics(m, cfg.clients)

	out.tracer = newTracer()
	tq := &tracedQuery{st: st, tr: out.tracer, plans: map[string]*compiled{}}
	ctx := context.Background()
	seq := p.seqs[0]
	pause0 := gcPauseNs()
	for deadline := time.Now().Add(time.Duration(float64(d) * tracedShare)); time.Now().Before(deadline); p.cursor[0]++ {
		tq.run(ctx, &p.texts[seq[p.cursor[0]%len(seq)].q])
	}
	m.set("runtime.gc_pause_ms", float64(gcPauseNs()-pause0)/1e6)
	tq.stageMetrics(m)
	m.set("db2rdf.plan_cache_stale_evictions", float64(st.Metrics().Snapshot().PlanCacheStaleEvictions))
	tq.overheadRatio(m, untraced)
	out.attempted, out.failed = untraced.attempted+tq.ops, untraced.failed+tq.failed

	allocPass(func(i int) { _, _ = st.QueryContext(ctx, p.texts[seq[i%len(seq)].q].text) }, m)
	return analyzePass(st, p, m)
}

// httpSeqOps sizes a client's linear sequence so that it outlasts the
// clock: the mix averages well over a millisecond per op at full
// scale, and a sequence that does run out only ends the run early.
func httpSeqOps(seconds float64) int { return int(seconds*4000) + 1000 }

// workDir makes the run's scratch directory inside the checkout.
func workDir(cfg config) (string, error) {
	dir := filepath.Join(cfg.tmpDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// writeDataFile writes the dataset as the N-Triples file the server loads.
func writeDataFile(ds *dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.writeNTriples(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runHTTP(cfg config, ds *dataset, out *outcome) error {
	m := out.metrics
	dir, err := workDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ntPath, dataDir := filepath.Join(dir, "data.nt"), filepath.Join(dir, "data")
	if err := writeDataFile(ds, ntPath); err != nil {
		return err
	}
	p, err := buildPlan(cfg.workload, ds, cfg.seed, cfg.clients, httpSeqOps(cfg.seconds))
	if err != nil {
		return err
	}
	if err := reference(p, ds.triples); err != nil {
		return err
	}

	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
		}
	}()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
		}
		var s float64
		if srv, s, err = startLoaded(cfg.serverBin, dataDir, ntPath, p); err != nil {
			return err
		}
		setups = append(setups, s)
	}
	m.set("setup_s", medianFloat(setups))

	eps := make([]*endpoint, cfg.clients)
	for c := range eps {
		eps[c] = newEndpoint(srv.base)
		defer eps[c].close()
	}
	l := newLedger(p.batches)
	s := summarise(p, closedLoop(p, cfg.clients, cfg.duration(), httpOp(eps, p, l)))
	out.attempted, out.failed, out.slices = s.attempted, s.failed, s.slices
	s.endToEndMetrics(m)
	s.clientMetrics(m, cfg.clients)

	mt, err := scrape(srv.base)
	if err != nil {
		return err
	}
	m.set("store.table_bytes", mt["db2rdf_table_resident_bytes"])
	m.set("dict.bytes", mt["db2rdf_dict_bytes"])
	m.set("resident_bytes_per_user_byte",
		(mt["db2rdf_table_resident_bytes"]+mt["db2rdf_dict_bytes"])/float64(ds.userBytes+l.liveBytes()))

	// Kill the server under its acknowledged writes, bring it back on
	// the same directory, and hold it to every one of them and to the
	// read answers; then ask it to close cleanly.
	srv.stop(syscall.SIGKILL)
	if srv, err = startServer(cfg.serverBin, dataDir, ""); err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	ep := newEndpoint(srv.base)
	defer ep.close()
	lost, err := l.lost(ep.rows)
	if err != nil {
		return err
	}
	m.set("store.acked_writes_lost", float64(lost))
	out.failed += lost + wrongReads(ep, p)
	err = srv.stop(syscall.SIGTERM)
	srv = nil
	if err != nil {
		return fmt.Errorf("server did not close cleanly on SIGTERM: %w", err)
	}
	return nil
}

func traceHTTP(cfg config, ds *dataset, out *outcome) error {
	m := out.metrics
	dir, err := workDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ntPath := filepath.Join(dir, "data.nt")
	if err := writeDataFile(ds, ntPath); err != nil {
		return err
	}
	p, err := buildPlan(cfg.workload, ds, cfg.seed, 1, httpSeqOps(cfg.seconds))
	if err != nil {
		return err
	}
	if err := reference(p, ds.triples); err != nil {
		return err
	}

	// The server's own configuration, in process: durable store,
	// parallel load, snapshot every 64 publishes, fsync off.
	t0 := time.Now()
	st, err := db2rdf.Open(db2rdf.Options{DataDir: filepath.Join(dir, "inproc"), SnapshotEvery: 64})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.LoadTriplesParallel(ds.triples, 0); err != nil {
		return err
	}
	loadS := time.Since(t0).Seconds()
	handler := server.New(server.Config{Store: st, Writable: true})
	loop := httptest.NewServer(handler)
	defer loop.Close()
	ep := newEndpoint(loop.URL)
	defer ep.close()
	if err := warmUp(ep, p); err != nil {
		return err
	}
	storeMetrics(m, st, ds, loadS)
	before := st.Metrics().Snapshot()

	d := cfg.duration()
	l := newLedger(p.batches)
	untraced := summarise(p, closedLoop(p, 1, time.Duration(float64(d)*(1-tracedShare)), httpOp([]*endpoint{ep}, p, l)))
	untraced.clientMetrics(m, cfg.clients)

	out.tracer = newTracer()
	tq := &tracedQuery{st: st, tr: out.tracer, plans: map[string]*compiled{}, warmQuery: true}
	h := &httpTracer{tq: tq, srv: handler, ep: ep, ledger: l}
	ctx := context.Background()
	seq := p.seqs[0]
	pause0 := gcPauseNs()
	for deadline := time.Now().Add(time.Duration(float64(d) * tracedShare)); time.Now().Before(deadline) && p.cursor[0] < len(seq); p.cursor[0]++ {
		if o := seq[p.cursor[0]]; o.kind == opRead {
			h.read(ctx, &p.texts[o.q])
		} else {
			h.write(o)
		}
	}
	m.set("runtime.gc_pause_ms", float64(gcPauseNs()-pause0)/1e6)
	tq.stageMetrics(m)
	h.edgeMetrics(m)
	tq.overheadRatio(m, untraced)
	out.attempted, out.failed = untraced.attempted+tq.ops+h.writes, untraced.failed+tq.failed

	// Write-path counters of the store, over both passes.
	after := st.Metrics().Snapshot()
	m.set("db2rdf.plan_cache_stale_evictions", float64(after.PlanCacheStaleEvictions-before.PlanCacheStaleEvictions))
	if updates := after.UpdatesServed - before.UpdatesServed; updates > 0 {
		m.set("store.update_us", (after.UpdateSeconds-before.UpdateSeconds)*1e6/float64(updates))
		m.set("wal.bytes_per_triple_written", float64(after.WALBytes-before.WALBytes)/float64(l.acked()*batchTriples))
	}
	m.set("wal.appends", float64(after.WALAppends-before.WALAppends))
	m.set("wal.fsyncs", float64(after.FsyncCount-before.FsyncCount))
	m.set("store.snapshot_writes", float64(after.SnapshotWrites-before.SnapshotWrites))
	m.set("store.snapshot_write_s", after.SnapshotWriteSeconds-before.SnapshotWriteSeconds)
	m.set("store.compactions", float64(after.CompactionsTotal-before.CompactionsTotal))
	m.set("store.dead_rows_end", float64(after.DeadRows))

	allocPass(func(i int) { serveQuery(handler, p.texts[i%len(p.texts)].text) }, m)
	if err := analyzePass(st, p, m); err != nil {
		return err
	}

	// The durability cycles need the real process to kill.
	dur, err := runDurability(cfg.serverBin, filepath.Join(dir, "data"), ntPath)
	if err != nil {
		return err
	}
	out.attempted += dur.attempted
	out.failed += dur.failedOps + dur.lost
	m.set("client.recover_s", medianFloat(dur.recoverS))
	m.set("store.recover_s", dur.storeS)
	m.set("store.replayed_records", medianFloat(dur.replayed))
	m.set("store.acked_writes_lost", float64(dur.lost))
	m.set("store.disk_bytes_per_user_byte", float64(dur.diskBytes)/float64(ds.userBytes+dur.liveBytes))
	return nil
}
