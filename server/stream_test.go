package server

// Streaming tests: the body of a 200 is encoded from dictionary ids
// while it is written, so what happens when the client leaves mid-body,
// and what a served answer allocates per row, are pinned here.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// lq6Shape is LUBM's Q6 as the benchmark sends it: every student, the
// class pre-expanded into a union over its two subclasses.
const lq6Shape = `PREFIX ub: <http://lubm/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
	SELECT ?x WHERE { { ?x rdf:type ub:UndergraduateStudent } UNION { ?x rdf:type ub:GraduateStudent } }`

// studentStore holds n students, alternately undergraduate and
// graduate, named by IRIs of about pad bytes, each with a name.
func studentStore(t testing.TB, n, pad int) *db2rdf.Store {
	t.Helper()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	classes := []rdf.Term{rdf.NewIRI("http://lubm/UndergraduateStudent"), rdf.NewIRI("http://lubm/GraduateStudent")}
	typ, name := rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://lubm/name")
	triples := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		x := rdf.NewIRI(fmt.Sprintf("http://www.Department%d.University0.edu/%s/Student%d", i%15, strings.Repeat("s", pad), i))
		triples = append(triples,
			rdf.NewTriple(x, typ, classes[i%2]),
			rdf.NewTriple(x, name, rdf.NewLiteral(fmt.Sprintf("Student%d", i))))
	}
	if err := s.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	return s
}

// discard is a ResponseWriter that drops the body, as a socket whose
// peer reads promptly does.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(p []byte) (int, error) { return len(p), nil }
func (d discard) WriteHeader(int)             {}

// TestWireEncodeAllocs serves the LQ6 shape over two store sizes and
// gates what a request allocates: a fixed cost, plus well under one
// allocation per row returned — the executor's slabs and result slice
// growth, and nothing per row on the wire path. Decoding every
// cell into a Binding and marshaling one map per row paid about seven
// per row (110k allocations at 16k rows). One executor worker keeps the
// counts deterministic; the ceiling sits about 10% over the measured
// value.
func TestWireEncodeAllocs(t *testing.T) {
	rel.SetParallelism(1, 0)
	defer rel.SetParallelism(0, 0)
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(lq6Shape), nil)
	measure := func(rows int) float64 {
		srv := New(Config{Store: studentStore(t, rows, 0)})
		serve := func() { srv.ServeHTTP(discard{http.Header{}}, req) }
		serve() // compile and cache the plan
		return testing.AllocsPerRun(20, serve)
	}
	const small, large = 1000, 16000
	a, b := measure(small), measure(large)
	perRow := (b - a) / (large - small)
	t.Logf("LQ6 shape over HTTP: %.0f allocs at %d rows, %.0f at %d rows (%.4f per row)", a, small, b, large, perRow)
	const maxAllocs = 300 // measured 273
	if b > maxAllocs {
		t.Errorf("%d-row request: %.0f allocs, ceiling %d", large, b, maxAllocs)
	}
	if perRow > 0.05 {
		t.Errorf("allocations grow by %.3f per row returned, want well under one", perRow)
	}
}

// TestClientLeavesMidBody hangs up on a ~16k-row answer (about 3 MB of
// JSON) right after its status line: the handler must notice, stop
// encoding, give back its admission slot and leave no goroutine behind.
func TestClientLeavesMidBody(t *testing.T) {
	before := runtime.NumGoroutine()
	store := studentStore(t, 16000, 120)
	srv := New(Config{Store: store, MaxConcurrent: 1})
	ts := httptest.NewServer(srv)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /sparql?query=%s HTTP/1.1\r\nHost: test\r\n\r\n", url.QueryEscape(lq6Shape))
	head := make([]byte, 64)
	if _, err := io.ReadAtLeast(conn, head, len(head)); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(head), "HTTP/1.1 200") {
		t.Fatalf("response starts %q, want a 200", head)
	}
	conn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for len(srv.sem) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission slot still held after the client left")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The one slot serves the next request in full.
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(`ASK { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"boolean":true`) {
		t.Fatalf("next request: status %d body %q", resp.StatusCode, body)
	}
	ts.Close()

	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
