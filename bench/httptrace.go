package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"time"

	"db2rdf"
	"db2rdf/results"
	"db2rdf/server"
)

// httpTracer traces http_mixed_rw in process: the same server.Server
// is reached once over a loopback socket (server.roundtrip) and once
// through a body-dropping ResponseWriter (server.handle); the store is then called directly
// (db2rdf.query, plus the stage replay) and the answer encoded
// (results.encode). Only the round trip can miss the plan cache, since
// the later calls find the plan it compiled; the replayed compile
// stages stand for that cost, and the metrics add them back to
// handle and query and take them out of wire.
type httpTracer struct {
	tq      *tracedQuery
	srv     *server.Server
	ep      *endpoint
	ledger  *ledger
	encoded int64
	writes  int
}

const (
	spUpdate      = "server.update"
	spParseUpdate = "sparql.parse_update"
)

func (h *httpTracer) read(ctx context.Context, q *queryText) {
	tq, tr := h.tq, h.tq.tr
	tr.nextOp(templateNames[q.tmpl])
	tq.ops++
	var (
		status int
		raw    []byte
		err    error
	)
	hits0, _ := tq.st.PlanCacheStats()
	rtID, rtNs := tr.span(0, spRoundTrip, func() { status, raw, _, err = h.ep.post(ctQuery, q.text) })
	hits1, _ := tq.st.PlanCacheStats()
	hit := hits1 > hits0
	if hit {
		tq.hits++
	}
	tq.realNs = append(tq.realNs, rtNs)
	if err != nil || status != http.StatusOK {
		tq.failed++
		return
	}
	res, err := results.ReadJSON(bytes.NewReader(raw))
	if err != nil || !q.correct(res) {
		tq.failed++
		return
	}
	hID, _ := tr.span(rtID, spHandle, func() { serveQuery(h.srv, q.text) })
	var direct *db2rdf.Results
	qID, _ := tr.span(hID, spQuery, func() { direct, err = tq.st.QueryContext(ctx, q.text) })
	if err != nil || !tq.replay(ctx, qID, q.text, hit, len(direct.Rows)) {
		tq.failed++
		return
	}
	body := countingWriter{w: io.Discard}
	tr.span(hID, spEncode, func() { err = results.JSON.Write(&body, direct) })
	if err != nil {
		tq.failed++
	}
	h.encoded += body.n
}

// discardResponse is a ResponseWriter that drops the body, as a socket
// whose peer reads promptly does: a recorder would buffer a 1.5 MB
// answer and charge the handler for growing that buffer.
type discardResponse struct{ header http.Header }

func (d discardResponse) Header() http.Header         { return d.header }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}

// serveQuery hands the handler one query request without a socket.
func serveQuery(h http.Handler, text string) {
	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(text))
	req.Header.Set("Content-Type", ctQuery)
	req.Header.Set("Accept", results.JSONContentType)
	h.ServeHTTP(discardResponse{header: http.Header{}}, req)
}

func (h *httpTracer) compileNs() (ns int64) {
	for _, st := range compileStages {
		ns += h.tq.tr.total[st]
	}
	return ns
}

func (h *httpTracer) write(o op) {
	tr := h.tq.tr
	tr.nextOp(o.kind.String())
	h.writes++
	ok := false
	id, _ := tr.span(0, spUpdate, func() { _, ok = h.ledger.write(h.ep, o) })
	if !ok {
		h.tq.failed++
	}
	body := h.ledger.body(o)
	tr.span(id, spParseUpdate, func() { _ = db2rdf.ValidateUpdate(body) }) // parsed fine a moment ago
}

// edgeMetrics fills the server.* and results.* means per read op.
func (h *httpTracer) edgeMetrics(m metricSet) {
	ops := float64(h.tq.ops)
	if ops == 0 {
		return
	}
	mean := func(name string) float64 { return usec(float64(h.tq.tr.total[name])) / ops }
	compile := usec(float64(h.compileNs())) / ops
	m.set("server.handle_us", mean(spHandle)+compile)
	m.set("server.self_us", mean(spHandle)-mean(spQuery)-mean(spEncode))
	m.set("server.wire_us", mean(spRoundTrip)-mean(spHandle)-compile)
	m.set("results.encode_us", mean(spEncode))
	m.set("results.bytes_per_op", float64(h.encoded)/ops)
	if h.writes > 0 {
		m.set("sparql.parse_update_us", usec(float64(h.tq.tr.total[spParseUpdate]))/float64(h.writes))
	}
}

// Durability cycles: writesPerCycle acknowledged writes, SIGKILL,
// restart, check; killCycles times through the real binary, then once
// more with the store opened in process for its own recovery figures.
const (
	killCycles     = 5
	writesPerCycle = 50
)

type durability struct {
	recoverS   []float64 // kill -> first correct answer, per cycle
	replayed   []float64 // WAL records replayed, per cycle
	storeS     float64   // Store's own recover_seconds after the last kill
	lost       int
	acked      int
	diskBytes  int64
	liveBytes  int64 // N-Triples bytes of the batches that should be stored
	attempted  int
	failedOps  int
	lastInsert string
}

// writeBurst sends n writes (two inserts, then a delete of the oldest
// live batch, and so on) and records the acknowledgements.
func (d *durability) writeBurst(ep *endpoint, l *ledger, live *[]int32, cycle, n int) {
	for w := 0; w < n; w++ {
		o := op{kind: opInsert, q: -1}
		if w%3 == 2 && len(*live) > 0 {
			o.kind, o.batch = opDelete, (*live)[0]
			*live = (*live)[1:]
		} else {
			o.batch = int32(len(l.batches))
			l.batches = append(l.batches, newBatch(fmt.Sprintf("k%d.b%d", cycle, w)))
			l.state = append(l.state, batchUntouched)
			*live = append(*live, o.batch)
		}
		d.attempted++
		if _, ok := l.write(ep, o); !ok {
			d.failedOps++
		} else if o.kind == opInsert {
			d.lastInsert = l.batches[o.batch].id
		}
	}
}

func runDurability(bin, dataDir, ntPath string) (*durability, error) {
	srv, err := startServer(bin, dataDir, ntPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
		}
	}()
	d := &durability{}
	l := newLedger(nil)
	var live []int32
	for cycle := 0; ; cycle++ {
		ep := newEndpoint(srv.base)
		d.writeBurst(ep, l, &live, cycle, writesPerCycle)
		ep.close()
		killed := time.Now()
		err := srv.stop(syscall.SIGKILL)
		srv = nil
		if err == nil {
			return nil, fmt.Errorf("server exited cleanly on SIGKILL")
		}
		if cycle == killCycles {
			break
		}
		if srv, err = startServer(bin, dataDir, ""); err != nil {
			return nil, fmt.Errorf("restart after kill %d: %w", cycle+1, err)
		}
		ep = newEndpoint(srv.base)
		if n, err := ep.rows(batchProbe(d.lastInsert)); err != nil || n != batchTriples {
			return nil, fmt.Errorf("after kill %d: last acknowledged insert shows %d of %d triples (%v)", cycle+1, n, batchTriples, err)
		}
		d.recoverS = append(d.recoverS, time.Since(killed).Seconds())
		lost, err := l.lost(ep.rows)
		if err != nil {
			return nil, err
		}
		d.lost = lost // a lost write stays lost, so the latest count is the total
		mt, err := scrape(srv.base)
		ep.close()
		if err != nil {
			return nil, err
		}
		d.replayed = append(d.replayed, mt["db2rdf_recovery_replayed_records"])
	}
	// After the last kill the benchmark recovers the directory itself:
	// the store reports its own recovery time, and closing it cleanly
	// leaves the directory a clean shutdown leaves.
	st, err := db2rdf.Open(db2rdf.Options{DataDir: dataDir, SnapshotEvery: 64})
	if err != nil {
		return nil, fmt.Errorf("recovering %s in process: %w", dataDir, err)
	}
	d.storeS = st.Metrics().Snapshot().RecoverSeconds
	lost, err := l.lost(func(q string) (int, error) {
		res, err := st.Query(q)
		if err != nil {
			return 0, err
		}
		return len(res.Rows), nil
	})
	if err != nil {
		return nil, err
	}
	d.lost = lost
	if err := st.Close(); err != nil {
		return nil, err
	}
	d.acked = l.acked()
	d.liveBytes = l.liveBytes()
	d.diskBytes, err = dirBytes(dataDir)
	return d, err
}
