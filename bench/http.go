package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"db2rdf"
	"db2rdf/results"
)

// serverProc is a running cmd/db2rdf-server.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	exited chan error
}

// addrWatcher is the server's stdout: it waits for the line that
// carries the resolved listen address.
type addrWatcher struct {
	buf  []byte
	addr chan string
	sent bool
}

const listenMarker = "listening on "

func (w *addrWatcher) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.Index(w.buf, []byte(listenMarker)); i >= 0 {
		if j := bytes.IndexByte(w.buf[i:], '\n'); j >= 0 {
			w.sent = true
			w.addr <- strings.TrimSpace(string(w.buf[i+len(listenMarker) : i+j]))
		}
	}
	return len(p), nil
}

// serverStartTimeout bounds the wait for the listen line (load or
// recovery of the whole dataset happens before it).
const serverStartTimeout = 60 * time.Second

// startServer starts the binary on an ephemeral loopback port and
// returns once it listens. fsync stays off: the sandbox's flush cost
// is not a device's, so durability here means surviving a process
// kill, which the page cache does for us either way.
func startServer(bin, dataDir, load string) (*serverProc, error) {
	args := []string{"-listen", "127.0.0.1:0", "-data", dataDir, "-writable", "-snapshot-every", "64"}
	if load != "" {
		args = append(args, "-load", load)
	}
	s := &serverProc{cmd: exec.Command(bin, args...), exited: make(chan error, 1)}
	out := &addrWatcher{addr: make(chan string, 1)}
	s.cmd.Stdout = out
	s.cmd.Stderr = &s.stderr
	dieWithParent(s.cmd)
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	select {
	case addr := <-out.addr:
		s.base = "http://" + addr
		return s, nil
	case err := <-s.exited:
		return nil, fmt.Errorf("server exited before listening: %v\n%s", err, s.stderr.String())
	case <-time.After(serverStartTimeout):
		s.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("server did not listen within %s\n%s", serverStartTimeout, s.stderr.String())
	}
}

// stop signals the server and waits until it has ended; it returns the
// process's exit error (nil for exit code 0).
func (s *serverProc) stop(sig syscall.Signal) error {
	if err := s.cmd.Process.Signal(sig); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		return err
	case <-time.After(serverStartTimeout):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server ignored %s for %s", sig, serverStartTimeout)
	}
}

// endpoint is one keep-alive connection to a SPARQL endpoint.
type endpoint struct {
	client *http.Client
	url    string
}

func newEndpoint(base string) *endpoint {
	return &endpoint{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		url:    base + "/sparql",
	}
}

func (e *endpoint) close() { e.client.CloseIdleConnections() }

// post sends one protocol request. The clock runs from the send to the
// last byte of the body.
func (e *endpoint) post(contentType, body string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, e.url, strings.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", results.JSONContentType)
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, time.Since(t0), err
}

const (
	ctQuery  = "application/sparql-query"
	ctUpdate = "application/sparql-update"
)

// queryRaw runs one read and returns the JSON body.
func (e *endpoint) queryRaw(text string) ([]byte, time.Duration, error) {
	status, raw, dt, err := e.post(ctQuery, text)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("query: status %d: %.200s", status, raw)
	}
	return raw, dt, err
}

// query runs one read and decodes its JSON body.
func (e *endpoint) query(text string) (*db2rdf.Results, []byte, error) {
	raw, _, err := e.queryRaw(text)
	if err != nil {
		return nil, nil, err
	}
	res, err := results.ReadJSON(bytes.NewReader(raw))
	return res, raw, err
}

// update runs one write and reports the counts the server acknowledged.
func (e *endpoint) update(text string) (inserted, deleted int, dt time.Duration, err error) {
	status, raw, dt, err := e.post(ctUpdate, text)
	if err != nil {
		return 0, 0, dt, err
	}
	if status != http.StatusOK {
		return 0, 0, dt, fmt.Errorf("update: status %d: %.200s", status, raw)
	}
	var ack struct{ Inserted, Deleted int }
	err = json.Unmarshal(raw, &ack)
	return ack.Inserted, ack.Deleted, dt, err
}

// ledger remembers which writes the server acknowledged, so that a
// restarted server can be held to them. Each batch is written by one
// client only, so the slots need no lock.
type ledger struct {
	batches []writeBatch
	state   []uint8
}

const (
	batchUntouched uint8 = iota
	batchInserted        // insert acknowledged
	batchDeleted         // delete acknowledged
)

func newLedger(batches []writeBatch) *ledger {
	return &ledger{batches: batches, state: make([]uint8, len(batches))}
}

// body is the update text of a write op.
func (l *ledger) body(o op) string {
	if o.kind == opDelete {
		return l.batches[o.batch].delete
	}
	return l.batches[o.batch].insert
}

// write applies one insert or delete through e and records the ack.
func (l *ledger) write(e *endpoint, o op) (time.Duration, bool) {
	wantIns, wantDel, state := batchTriples, 0, batchInserted
	if o.kind == opDelete {
		wantIns, wantDel, state = 0, batchTriples, batchDeleted
	}
	ins, del, dt, err := e.update(l.body(o))
	if err != nil || ins != wantIns || del != wantDel {
		return dt, false
	}
	l.state[o.batch] = state
	return dt, true
}

// acked counts the acknowledged writes.
func (l *ledger) acked() (n int) {
	for _, s := range l.state {
		n += int(s) // an acknowledged delete follows an acknowledged insert
	}
	return n
}

// liveBytes is the N-Triples size of the batches that should be stored.
func (l *ledger) liveBytes() (n int64) {
	for i, s := range l.state {
		if s == batchInserted {
			n += l.batches[i].userBytes
		}
	}
	return n
}

// lost counts acknowledged writes the store no longer reflects: an
// inserted batch must show all its triples, a deleted one none.
func (l *ledger) lost(rows func(query string) (int, error)) (int, error) {
	lost := 0
	for i, s := range l.state {
		if s == batchUntouched {
			continue
		}
		n, err := rows(batchProbe(l.batches[i].id))
		if err != nil {
			return 0, err
		}
		if (s == batchInserted && n != batchTriples) || (s == batchDeleted && n != 0) {
			lost++
		}
	}
	return lost, nil
}

func (e *endpoint) rows(query string) (int, error) {
	res, _, err := e.query(query)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// httpOp is the op of http_mixed_rw: one request on the client's own
// connection; the answer is checked after the clock stops.
func httpOp(eps []*endpoint, p *plan, l *ledger) doOp {
	return func(c int, o op) (time.Duration, bool) {
		if o.kind != opRead {
			return l.write(eps[c], o)
		}
		q := &p.texts[o.q]
		raw, dt, err := eps[c].queryRaw(q.text)
		return dt, err == nil && q.correctWire(raw)
	}
}

// scrape reads the server's /metrics into name -> value (unlabelled
// samples only, which is all the benchmark uses).
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// startLoaded is one set-up of http_mixed_rw: a fresh data directory,
// the server loading the N-Triples file, every read text asked once
// and checked.
func startLoaded(bin, dataDir, ntPath string, p *plan) (*serverProc, float64, error) {
	t0 := time.Now()
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, 0, err
	}
	srv, err := startServer(bin, dataDir, ntPath)
	if err != nil {
		return nil, 0, err
	}
	ep := newEndpoint(srv.base)
	defer ep.close()
	if err := warmUp(ep, p); err != nil {
		srv.stop(syscall.SIGKILL)
		return nil, 0, err
	}
	return srv, time.Since(t0).Seconds(), nil
}

// warmUp asks every read text once, decodes the answer in full and
// checks it against the reference.
func warmUp(ep *endpoint, p *plan) error {
	for i := range p.texts {
		q := &p.texts[i]
		res, raw, err := ep.query(q.text)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", templateNames[q.tmpl], err)
		}
		if !q.checkWire(res, raw) {
			return fmt.Errorf("warm-up %s: wrong answer (%d rows)", templateNames[q.tmpl], len(res.Rows))
		}
	}
	return nil
}

// wrongReads asks every read text once and counts wrong answers.
func wrongReads(ep *endpoint, p *plan) int {
	wrong := 0
	for i := range p.texts {
		if res, _, err := ep.query(p.texts[i].text); err != nil || !p.texts[i].correct(res) {
			wrong++
		}
	}
	return wrong
}
