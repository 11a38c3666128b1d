// Command db2rdf-server exposes a DB2RDF store over the SPARQL 1.1
// Protocol.
//
// Usage:
//
//	db2rdf-server -listen :8080 -load data.nt
//	db2rdf-server -listen :8080 -data ./state -writable
//	db2rdf-server -listen 127.0.0.1:0 -load data.nt   # ephemeral port, printed at startup
//
// Endpoints:
//
//	GET  /sparql?query=...        SPARQL query
//	POST /sparql                  query or update (form-encoded,
//	                              application/sparql-query, or — with
//	                              -writable — application/sparql-update)
//	GET  /metrics                 Prometheus scrape endpoint
//	GET  /healthz                 liveness probe
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight requests (up to -drain-timeout), then closes the store —
// flushing the WAL and writing a final snapshot when -data is set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/server"
)

type loadList []string

func (l *loadList) String() string     { return strings.Join(*l, ",") }
func (l *loadList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var loads loadList
	flag.Var(&loads, "load", "N-Triples file to load at startup (repeatable)")
	listen := flag.String("listen", ":8080", "address to listen on (host:port; port 0 picks one)")
	writable := flag.Bool("writable", false, "accept SPARQL update requests (default: read-only endpoint)")
	k := flag.Int("k", 32, "predicate/value column pairs per primary row")
	dataDir := flag.String("data", "", "data directory for durability (WAL + snapshots); empty = in-memory only")
	fsync := flag.Bool("fsync", false, "fsync the WAL on every publish (requires -data)")
	snapshotEvery := flag.Int("snapshot-every", 0, "write a background snapshot every n publishes (requires -data)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request execution deadline (0 = none)")
	maxRows := flag.Int64("max-rows", 0, "per-query row budget, counting intermediate results (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 0, "per-query executor memory budget in bytes (0 = unlimited)")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrently executing requests before shedding with 503 (0 = 4×GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	flag.Parse()

	if err := run(loads, *listen, *writable, *k, *dataDir, *fsync, *snapshotEvery,
		*timeout, *maxRows, *maxBytes, *maxConcurrent, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "db2rdf-server:", err)
		os.Exit(1)
	}
}

func run(loads []string, listen string, writable bool, k int, dataDir string,
	fsync bool, snapshotEvery int, timeout time.Duration, maxRows, maxBytes int64,
	maxConcurrent int, drainTimeout time.Duration) error {
	store, err := db2rdf.Open(db2rdf.Options{
		K:              k,
		DataDir:        dataDir,
		Fsync:          fsync,
		SnapshotEvery:  snapshotEvery,
		MaxResultRows:  maxRows,
		MaxMemoryBytes: maxBytes,
	})
	if err != nil {
		return err
	}

	for _, path := range loads {
		f, err := os.Open(path)
		if err != nil {
			store.Close()
			return err
		}
		triples, err := rdf.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			store.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		start := time.Now()
		if err := store.LoadTriples(triples); err != nil {
			store.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "db2rdf-server: loaded %d triples from %s in %s\n",
			len(triples), path, time.Since(start).Round(time.Millisecond))
	}

	srv := server.New(server.Config{
		Store:          store,
		Writable:       writable,
		MaxConcurrent:  maxConcurrent,
		RequestTimeout: timeout,
	})
	httpSrv := &http.Server{Handler: srv}

	// The handler is in place before the listener exists: a client
	// that reads the listening line may signal at once, and must get
	// the drain, not the default exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		store.Close()
		return err
	}
	// The resolved address line is machine-readable on purpose: with
	// -listen :0 the smoke tests and scripts parse the chosen port.
	fmt.Printf("db2rdf-server: listening on %s\n", ln.Addr())
	mode := "read-only"
	if writable {
		mode = "writable"
	}
	fmt.Fprintf(os.Stderr, "db2rdf-server: %s, endpoints /sparql /metrics /healthz\n", mode)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "db2rdf-server: received %s, draining\n", s)
	case err := <-errc:
		store.Close()
		return err
	}

	// Shutdown stops the listener and waits for in-flight requests;
	// only then is the store closed, so no request ever races Close.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "db2rdf-server: drain:", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "db2rdf-server: serve:", err)
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	fmt.Fprintln(os.Stderr, "db2rdf-server: clean shutdown")
	return nil
}
