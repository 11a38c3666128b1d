// Package harness builds the systems-under-test and runs the query
// workloads for every table and figure in the paper's evaluation (§4),
// following the paper's methodology: queries are run warm (the first
// run is discarded), averaged over repetitions, classified as
// complete / error / timeout against an independently computed
// reference answer count, and reported per system.
package harness

import (
	"fmt"
	"time"

	"db2rdf"
	"db2rdf/internal/baselines"
	"db2rdf/internal/gen"
)

// System is one store configuration under test.
type System struct {
	// Name identifies the configuration, e.g. "db2rdf",
	// "triple-naive".
	Name string
	// Run executes a SPARQL query and returns the solution count.
	Run func(q string) (int, error)
	// ResetPlans drops the system's compiled-plan cache, when it has
	// one (nil otherwise). Used to measure cold-plan latencies.
	ResetPlans func()
}

// SystemNames lists the available configurations and the paper systems
// they stand in for (see DESIGN.md §2 for the substitution argument).
var SystemNames = []string{
	"db2rdf",          // the paper's DB2RDF (entity schema + hybrid optimizer)
	"db2rdf-noopt",    // DB2RDF schema, naive document-order flow (§3.3 comparator)
	"db2rdf-nomerge",  // DB2RDF schema, hybrid flow, star merging off (ablation)
	"triple-hybrid",   // triple-store schema, hybrid flow (Virtuoso/RDF-3X-like)
	"triple-naive",    // triple-store schema, naive flow (Jena-like)
	"vertical-hybrid", // predicate-oriented schema, hybrid flow (C-store-like)
	"vertical-naive",  // predicate-oriented schema, naive flow (Sesame-like)
}

// BuildSystem loads the dataset into the named configuration.
func BuildSystem(name string, ds *gen.Dataset) (System, error) {
	switch name {
	case "db2rdf", "db2rdf-noopt", "db2rdf-nomerge":
		opts := db2rdf.Options{
			DisableHybridOptimizer: name == "db2rdf-noopt",
			DisableMerging:         name == "db2rdf-nomerge",
		}
		s, err := db2rdf.Open(opts)
		if err != nil {
			return System{}, err
		}
		if err := s.LoadTriples(ds.Triples); err != nil {
			return System{}, err
		}
		return System{Name: name, ResetPlans: s.ResetPlanCache, Run: func(q string) (int, error) {
			r, err := s.Query(q)
			if err != nil {
				return 0, err
			}
			if r.IsAsk {
				return boolCount(r.Ask), nil
			}
			return len(r.Rows), nil
		}}, nil
	case "triple-hybrid", "triple-naive":
		s, err := baselines.NewTripleStore(baselines.TripleOptions{
			IndexSubject: true,
			IndexObject:  true,
			Naive:        name == "triple-naive",
		})
		if err != nil {
			return System{}, err
		}
		if err := s.LoadTriples(ds.Triples); err != nil {
			return System{}, err
		}
		return System{Name: name, Run: baselineRunner(s.Query)}, nil
	case "vertical-hybrid", "vertical-naive":
		s, err := baselines.NewVerticalStore(baselines.VerticalOptions{Naive: name == "vertical-naive"})
		if err != nil {
			return System{}, err
		}
		if err := s.LoadTriples(ds.Triples); err != nil {
			return System{}, err
		}
		return System{Name: name, Run: baselineRunner(s.Query)}, nil
	}
	return System{}, fmt.Errorf("harness: unknown system %q", name)
}

func baselineRunner(query func(string) (*baselines.Results, error)) func(string) (int, error) {
	return func(q string) (int, error) {
		r, err := query(q)
		if err != nil {
			return 0, err
		}
		if r.IsAsk {
			return boolCount(r.Ask), nil
		}
		return len(r.Rows), nil
	}
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Outcome classifies one query run (the categories of Figure 15).
type Outcome uint8

const (
	// Complete means the query ran and returned the reference count.
	Complete Outcome = iota
	// Error means the query ran but returned a wrong count, or failed.
	Error
	// Timeout means the query exceeded the deadline.
	Timeout
	// Unsupported means the query did not parse/translate.
	Unsupported
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Complete:
		return "complete"
	case Error:
		return "error"
	case Timeout:
		return "timeout"
	case Unsupported:
		return "unsupported"
	}
	return "?"
}

// Measurement is one query's result on one system.
type Measurement struct {
	Query   string
	System  string
	Rows    int
	Mean    time.Duration
	Outcome Outcome
}

// RunOptions tunes workload execution.
type RunOptions struct {
	// Reps is the number of timed repetitions after the discarded
	// warm-up run (the paper discards 1 of 8; default 3).
	Reps int
	// Timeout bounds one query execution (the paper uses 10 minutes;
	// default 10s at laptop scale).
	Timeout time.Duration
	// ColdPlans drops the system's compiled-plan cache before every
	// run (including the warm-up), so each measurement pays the full
	// compile pipeline. The default measures warm (cached) plans,
	// matching the paper's discard-first-run methodology.
	ColdPlans bool
}

func (o *RunOptions) fill() {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
}

// timedRun executes fn under a deadline. The goroutine is abandoned on
// timeout (the engine has no cancellation), so timeouts should be rare
// at the scales the harness uses.
func timedRun(fn func() (int, error), timeout time.Duration) (rows int, dur time.Duration, err error, timedOut bool) {
	type res struct {
		rows int
		err  error
		dur  time.Duration
	}
	ch := make(chan res, 1)
	start := time.Now()
	go func() {
		n, err := fn()
		ch <- res{rows: n, err: err, dur: time.Since(start)}
	}()
	select {
	case r := <-ch:
		return r.rows, r.dur, r.err, false
	case <-time.After(timeout):
		return 0, timeout, nil, true
	}
}

// RunQuery measures one query on one system against a reference count
// (pass a negative reference to skip validation).
func RunQuery(sys System, q gen.Query, refRows int, opts RunOptions) Measurement {
	opts.fill()
	m := Measurement{Query: q.Name, System: sys.Name}
	resetPlans := func() {
		if opts.ColdPlans && sys.ResetPlans != nil {
			sys.ResetPlans()
		}
	}
	// Warm-up (also the correctness check).
	resetPlans()
	rows, _, err, timedOut := timedRun(func() (int, error) { return sys.Run(q.SPARQL) }, opts.Timeout)
	switch {
	case timedOut:
		m.Outcome = Timeout
		m.Mean = opts.Timeout
		return m
	case err != nil:
		m.Outcome = Error
		return m
	}
	m.Rows = rows
	if refRows >= 0 && rows != refRows {
		m.Outcome = Error
		return m
	}
	var total time.Duration
	for i := 0; i < opts.Reps; i++ {
		resetPlans()
		_, dur, err, timedOut := timedRun(func() (int, error) { return sys.Run(q.SPARQL) }, opts.Timeout)
		if timedOut {
			m.Outcome = Timeout
			m.Mean = opts.Timeout
			return m
		}
		if err != nil {
			m.Outcome = Error
			return m
		}
		total += dur
	}
	m.Mean = total / time.Duration(opts.Reps)
	m.Outcome = Complete
	return m
}

// ReferenceCounts computes the reference answer count for every query
// using the triple-store baseline (an independent code path from the
// system under test).
func ReferenceCounts(ds *gen.Dataset, opts RunOptions) (map[string]int, error) {
	opts.fill()
	ref, err := BuildSystem("triple-hybrid", ds)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(ds.Queries))
	for _, q := range ds.Queries {
		rows, _, err, timedOut := timedRun(func() (int, error) { return ref.Run(q.SPARQL) }, opts.Timeout)
		if err != nil || timedOut {
			out[q.Name] = -1 // no reference available (e.g. SQ4 by design)
			continue
		}
		out[q.Name] = rows
	}
	return out, nil
}
