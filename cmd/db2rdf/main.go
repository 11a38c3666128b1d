// Command db2rdf loads N-Triples data into a DB2RDF store and runs
// SPARQL queries against it.
//
// Usage:
//
//	db2rdf -load data.nt -query 'SELECT ?s WHERE { ?s <p> ?o }'
//	db2rdf -load data.nt -queryfile q.rq -explain
//	db2rdf -load data.nt -update 'DELETE WHERE { <s> ?p ?o }' -query ...
//	db2rdf -load data.nt -stats
//	db2rdf -load data.nt -color -k 40 -query ...   # coloring-based layout
//	db2rdf -load data.nt -format csv -query ...    # wire serializations: json, csv, tsv
//
// Multiple -load flags may be given. With -explain the optimizer flow,
// execution tree, merged plan and generated SQL are printed instead of
// (or before, with -run) the results.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/results"
)

type loadList []string

func (l *loadList) String() string     { return strings.Join(*l, ",") }
func (l *loadList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var loads loadList
	flag.Var(&loads, "load", "N-Triples file to load (repeatable)")
	query := flag.String("query", "", "SPARQL query to run")
	queryFile := flag.String("queryfile", "", "file containing the SPARQL query")
	update := flag.String("update", "", "SPARQL update to run after loading, before the query")
	explain := flag.Bool("explain", false, "print optimizer flow, plan and SQL")
	run := flag.Bool("run", true, "execute the query (use -run=false with -explain)")
	stats := flag.Bool("stats", false, "print dataset statistics after loading")
	k := flag.Int("k", 32, "predicate/value column pairs per primary row")
	color := flag.Bool("color", false, "build a coloring-based predicate mapping from the loaded data (requires re-load; slower load, tighter layout)")
	noopt := flag.Bool("noopt", false, "disable the hybrid optimizer (document-order flow)")
	timeout := flag.Duration("timeout", 0, "per-query deadline, e.g. 500ms (0 = none)")
	maxRows := flag.Int64("max-rows", 0, "per-query row budget, counting intermediate results (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 0, "per-query executor memory budget in bytes (0 = unlimited)")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute with per-operator instrumentation and print estimates vs actuals")
	format := flag.String("format", "text", "result output format: text, json (SPARQL results JSON), csv, tsv")
	metrics := flag.Bool("metrics", false, "print the store metrics registry (Prometheus text) before exiting")
	slowQuery := flag.Duration("slow-query", 0, "log queries at or over this duration to stderr, with their operator profile (0 = off)")
	dataDir := flag.String("data", "", "data directory for durability (WAL + snapshots); empty = in-memory only")
	fsync := flag.Bool("fsync", false, "fsync the WAL on every publish (machine-crash durability; requires -data)")
	snapshotEvery := flag.Int("snapshot-every", 0, "write a background snapshot every n publishes (0 = only at exit; requires -data)")
	flag.Parse()

	gov := govFlags{timeout: *timeout, maxRows: *maxRows, maxBytes: *maxBytes, slowQuery: *slowQuery}
	dur := durFlags{dataDir: *dataDir, fsync: *fsync, snapshotEvery: *snapshotEvery}
	if err := realMain(loads, *query, *queryFile, *update, *explain, *run, *stats, *k, *color, *noopt, gov, dur, *analyze, *metrics, *format); err != nil {
		fmt.Fprintln(os.Stderr, "db2rdf:", err)
		os.Exit(1)
	}
}

// govFlags carries the query-governance flags into realMain.
type govFlags struct {
	timeout   time.Duration
	maxRows   int64
	maxBytes  int64
	slowQuery time.Duration
}

// durFlags carries the durability flags into realMain.
type durFlags struct {
	dataDir       string
	fsync         bool
	snapshotEvery int
}

func realMain(loads []string, query, queryFile, update string, explain, run, stats bool, k int, color, noopt bool, gov govFlags, dur durFlags, analyze, metrics bool, format string) error {
	if format != "text" {
		if _, ok := results.ParseFormat(format); !ok {
			return fmt.Errorf("unknown -format %q (want text, json, csv or tsv)", format)
		}
	}
	var triples []rdf.Triple
	for _, path := range loads {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		ts, err := rdf.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		triples = append(triples, ts...)
	}

	opts := db2rdf.Options{
		K:                      k,
		DisableHybridOptimizer: noopt,
		QueryTimeout:           gov.timeout,
		MaxResultRows:          gov.maxRows,
		MaxMemoryBytes:         gov.maxBytes,
	}
	if gov.slowQuery > 0 {
		opts.SlowQueryThreshold = gov.slowQuery
		opts.SlowQueryLog = func(sq db2rdf.SlowQuery) {
			fmt.Fprintln(os.Stderr, sq.String())
		}
	}
	if color {
		direct, reverse := db2rdf.ColorTriples(triples, k, k)
		opts.Mapping, opts.ReverseMapping = direct, reverse
	}
	opts.DataDir = dur.dataDir
	opts.Fsync = dur.fsync
	opts.SnapshotEvery = dur.snapshotEvery
	store, err := db2rdf.Open(opts)
	if err != nil {
		return err
	}
	// Close flushes the WAL and writes a final snapshot when -data is
	// set; a SIGINT/SIGTERM takes the same clean path before exiting.
	defer store.Close()
	if dur.dataDir != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			fmt.Fprintf(os.Stderr, "db2rdf: received %s, flushing %s\n", s, dur.dataDir)
			if err := store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "db2rdf: close:", err)
				os.Exit(1)
			}
			os.Exit(0)
		}()
	}
	start := time.Now()
	if err := store.LoadTriples(triples); err != nil {
		return err
	}
	if len(triples) > 0 {
		fmt.Printf("loaded %d triples (%d subjects) in %s\n", len(triples), store.Len(), time.Since(start).Round(time.Millisecond))
	}

	if stats {
		snap := store.Internal().Snapshot()
		sv := snap.StatsView()
		fmt.Printf("total triples: %.0f\n", sv.TotalTriples())
		fmt.Printf("avg triples/subject: %.2f\n", sv.AvgPerSubject())
		fmt.Printf("avg triples/object: %.2f\n", sv.AvgPerObject())
		fmt.Printf("direct spills: %d, reverse spills: %d\n", snap.SpillCount(false), snap.SpillCount(true))
		fmt.Println("top constants:")
		for _, line := range snap.TopConstants(10) {
			fmt.Println("  " + line)
		}
	}

	if update != "" {
		start := time.Now()
		ur, err := store.Update(update)
		if err != nil {
			return err
		}
		fmt.Printf("update: %d inserted, %d deleted in %s\n",
			ur.Inserted, ur.Deleted, time.Since(start).Round(time.Microsecond))
	}

	if queryFile != "" {
		b, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		query = string(b)
	}
	if query == "" {
		return printMetrics(store, metrics)
	}

	if explain {
		ex, err := store.Explain(query)
		if err != nil {
			return err
		}
		fmt.Println("-- optimal flow tree:")
		fmt.Println("  " + ex.Flow)
		fmt.Println("-- execution tree:")
		fmt.Println("  " + ex.Tree)
		fmt.Println("-- query plan (after merging):")
		fmt.Println("  " + ex.Plan)
		fmt.Println("-- generated SQL:")
		fmt.Println(ex.SQL)
		fmt.Println("-- governance:")
		if ex.Deadline.IsZero() {
			fmt.Println("  deadline: none")
		} else {
			fmt.Printf("  deadline: %s (in %s)\n", ex.Deadline.Format(time.RFC3339), time.Until(ex.Deadline).Round(time.Millisecond))
		}
		fmt.Printf("  max result rows: %s\n", limitStr(ex.MaxResultRows))
		fmt.Printf("  max memory bytes: %s\n", limitStr(ex.MaxMemoryBytes))
	}
	if !run && !analyze {
		return nil
	}
	if analyze {
		an, err := store.Analyze(query)
		if an != nil {
			fmt.Println("-- analyze:")
			fmt.Println(an.String())
		}
		if err != nil {
			return err
		}
		if run && an.Results != nil {
			if err := printResults(an.Results, an.Duration, format); err != nil {
				return err
			}
		}
		return printMetrics(store, metrics)
	}
	start = time.Now()
	res, err := store.Query(query)
	if err != nil {
		return err
	}
	if err := printResults(res, time.Since(start), format); err != nil {
		return err
	}
	return printMetrics(store, metrics)
}

// printResults renders a result set: the human-readable text layout,
// or one of the wire serializations shared with the HTTP endpoint.
func printResults(res *db2rdf.Results, dur time.Duration, format string) error {
	if format != "text" {
		f, _ := results.ParseFormat(format)
		return f.Write(os.Stdout, res)
	}
	printText(res, dur)
	return nil
}

func printText(res *db2rdf.Results, dur time.Duration) {
	if res.IsAsk {
		fmt.Printf("ASK -> %v (%s)\n", res.Ask, dur.Round(time.Microsecond))
		return
	}
	fmt.Println(strings.Join(res.Vars, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, b := range row {
			cells[i] = b.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Printf("%d solutions in %s\n", len(res.Rows), dur.Round(time.Microsecond))
}

func printMetrics(store *db2rdf.Store, enabled bool) error {
	if !enabled {
		return nil
	}
	fmt.Println("-- metrics:")
	return store.Metrics().WritePrometheus(os.Stdout)
}

func limitStr(n int64) string {
	if n <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d", n)
}
