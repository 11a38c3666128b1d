// Package server implements the SPARQL 1.1 Protocol over HTTP for a
// db2rdf store: query requests via GET and POST (form-encoded or
// direct application/sparql-query bodies), update requests via POST
// application/sparql-update behind an explicit writable switch,
// content-negotiated result serializations from package results, a
// Prometheus scrape endpoint, and a health probe.
//
// Status mapping (DESIGN.md §11): a request that fails to parse is the
// client's fault (400); a request shed by the admission semaphore or
// aborted by query governance — deadline, row/memory budget,
// cancellation — is a capacity signal (503 with Retry-After, the store
// itself is healthy); a contained panic is a server bug (500). A query
// has executed in full under its governance — and every term id of its
// answer has been checked against the dictionary — before the status
// line is written; the body is then encoded straight from those ids.
// Only a client that stops reading can cut a 200 short.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"time"

	"db2rdf"
	"db2rdf/results"
)

// Config configures a Server. Store is required; the zero value of
// every other field is a sensible production default.
type Config struct {
	// Store is the engine to serve. The server does not own it: the
	// caller closes it after draining in-flight requests.
	Store *db2rdf.Store

	// Writable enables POST application/sparql-update (and form
	// update= requests). When false — the default — update requests
	// are refused with 403 and the store cannot be mutated over HTTP.
	Writable bool

	// MaxConcurrent caps concurrently executing query/update requests;
	// excess requests are shed immediately with 503 + Retry-After
	// rather than queued (load shedding keeps tail latency bounded).
	// 0 means 4×GOMAXPROCS.
	MaxConcurrent int

	// RequestTimeout bounds each request's execution wall time; the
	// store's own Options.QueryTimeout still applies and the earlier
	// deadline wins. 0 means no per-request deadline.
	RequestTimeout time.Duration

	// MaxRequestBytes caps the request body size (413 beyond it).
	// 0 means 1 MiB.
	MaxRequestBytes int64
}

// Server serves the SPARQL protocol for one store. Create with New;
// it implements http.Handler.
type Server struct {
	cfg   Config
	sem   chan struct{}
	mux   *http.ServeMux
	maxIn int64
}

// New returns a Server for the given configuration.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: Config.Store is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 1 << 20
	}
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		maxIn: cfg.MaxRequestBytes,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/sparql", s.handleSparql)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// ServeHTTP dispatches to the protocol endpoints. Panics in the
// query engine never reach here (QueryContext contains them into
// *PanicError → 500); a panic in the request plumbing itself is left
// to net/http, which drops the connection — the client sees a
// truncated response, never a clean 200.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleSparql is the protocol endpoint: query via GET or POST,
// update via POST.
func (s *Server) handleSparql(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("query")
		if q == "" {
			if r.URL.Query().Has("update") {
				// Protocol: update is POST-only (GET must be safe).
				s.textError(w, http.StatusMethodNotAllowed, "update requests must use POST", "POST")
				return
			}
			s.textError(w, http.StatusBadRequest, "missing query parameter", "")
			return
		}
		s.serveQuery(w, r, q)
	case http.MethodPost:
		s.handlePost(w, r)
	default:
		s.textError(w, http.StatusMethodNotAllowed, "method not allowed", "GET, POST")
	}
}

// handlePost routes the three POST request shapes of the protocol.
func (s *Server) handlePost(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil && ct != "" {
		s.textError(w, http.StatusUnsupportedMediaType, "malformed Content-Type", "")
		return
	}
	switch mt {
	case "application/x-www-form-urlencoded", "":
		r.Body = http.MaxBytesReader(w, r.Body, s.maxIn)
		if err := r.ParseForm(); err != nil {
			s.formError(w, err)
			return
		}
		q, u := r.PostForm.Get("query"), r.PostForm.Get("update")
		switch {
		case q != "" && u != "":
			s.textError(w, http.StatusBadRequest, "request carries both query and update", "")
		case q != "":
			s.serveQuery(w, r, q)
		case u != "":
			s.serveUpdate(w, r, u)
		default:
			s.textError(w, http.StatusBadRequest, "missing query or update parameter", "")
		}
	case "application/sparql-query":
		body, ok := s.readBody(w, r)
		if ok {
			s.serveQuery(w, r, body)
		}
	case "application/sparql-update":
		body, ok := s.readBody(w, r)
		if ok {
			s.serveUpdate(w, r, body)
		}
	default:
		s.textError(w, http.StatusUnsupportedMediaType,
			fmt.Sprintf("unsupported media type %q", mt), "")
	}
}

// readBody reads a direct query/update body under the size cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxIn))
	if err != nil {
		s.formError(w, err)
		return "", false
	}
	return string(body), true
}

// formError maps body-read failures: an oversize body is 413,
// anything else 400.
func (s *Server) formError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.textError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), "")
		return
	}
	s.textError(w, http.StatusBadRequest, "malformed request body", "")
}

// serveQuery executes one SPARQL query request end to end.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q string) {
	format, ok := results.Negotiate(r.Header.Get("Accept"))
	if !ok {
		s.textError(w, http.StatusNotAcceptable,
			"no acceptable result format; supported: application/sparql-results+json, text/csv, text/tab-separated-values", "")
		return
	}
	if !s.admit() {
		s.overloaded(w, "server at capacity")
		return
	}
	defer s.release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	sol, err := s.cfg.Store.SolveContext(ctx, q)
	if err != nil {
		s.execError(w, err)
		return
	}
	// Execution and its governance are over and every id renders: the
	// 200 and its body can no longer be truncated by the server.
	w.Header().Set("Content-Type", format.ContentType())
	w.WriteHeader(http.StatusOK)
	_ = format.WriteSolutions(w, sol) // a failed write means the client left
}

// serveUpdate executes one SPARQL update request.
func (s *Server) serveUpdate(w http.ResponseWriter, r *http.Request, u string) {
	if !s.cfg.Writable {
		s.textError(w, http.StatusForbidden, "endpoint is read-only (start the server with -writable)", "")
		return
	}
	if err := db2rdf.ValidateUpdate(u); err != nil {
		s.textError(w, http.StatusBadRequest, fmt.Sprintf("malformed update: %v", err), "")
		return
	}
	if !s.admit() {
		s.overloaded(w, "server at capacity")
		return
	}
	defer s.release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := s.cfg.Store.UpdateContext(ctx, u)
	if err != nil {
		s.execError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(map[string]int{
		"inserted": res.Inserted,
		"deleted":  res.Deleted,
	})
}

// execError maps an execution failure to a status code: a query that
// does not parse is 400; governance aborts (deadline, budget,
// cancellation) are 503 capacity signals; contained panics and anything
// else are 500.
func (s *Server) execError(w http.ResponseWriter, err error) {
	var se *db2rdf.SyntaxError
	var pe *db2rdf.PanicError
	switch {
	case errors.As(err, &se):
		s.textError(w, http.StatusBadRequest, fmt.Sprintf("malformed query: %v", se), "")
	case errors.As(err, &pe):
		s.textError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", err), "")
	case db2rdf.IsGovernanceError(err):
		s.overloaded(w, err.Error())
	default:
		s.textError(w, http.StatusInternalServerError, fmt.Sprintf("query failed: %v", err), "")
	}
}

// admit tries to take an execution slot without blocking: shedding
// beats queueing, because a queued request pays its own deadline down
// while waiting and then wastes an execution slot timing out.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) release() { <-s.sem }

// requestCtx derives the execution context: the client's (canceling
// on disconnect), bounded by the configured per-request timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// overloaded writes a 503 with a Retry-After hint.
func (s *Server) overloaded(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	s.textError(w, http.StatusServiceUnavailable, msg, "")
}

// textError writes a plain-text error response; allow, when nonempty,
// sets the Allow header (405 responses).
func (s *Server) textError(w http.ResponseWriter, code int, msg, allow string) {
	if allow != "" {
		w.Header().Set("Allow", allow)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, msg)
}

// handleMetrics serves the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.textError(w, http.StatusMethodNotAllowed, "method not allowed", "GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Store.Metrics().WritePrometheus(w)
}

// handleHealth is the liveness probe: the store is reachable and has a
// published snapshot.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.textError(w, http.StatusMethodNotAllowed, "method not allowed", "GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": "ok",
		"epoch":  s.cfg.Store.Internal().Snapshot().Epoch(),
	})
}
