// Package db2rdf is a Go reproduction of "Building an Efficient RDF
// Store Over a Relational Database" (Bornea et al., SIGMOD 2013), the
// system that became RDF support in IBM DB2 v10.1.
//
// It stores RDF triples in the entity-oriented DB2RDF relational schema
// (DPH/DS/RPH/RS) over an embedded relational engine, optimizes SPARQL
// with the paper's hybrid two-step optimizer (data flow + query plan
// builder), translates plans to SQL, and executes them.
//
// Quick start:
//
//	store, _ := db2rdf.Open(db2rdf.Options{})
//	store.LoadReader(file)                       // N-Triples
//	res, _ := store.Query(`SELECT ?s WHERE { ?s <p> "v" }`)
//	for _, row := range res.Rows { fmt.Println(row) }
package db2rdf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"db2rdf/internal/coloring"
	"db2rdf/internal/optimizer"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
	"db2rdf/internal/translator"
)

// Options configures a Store.
type Options struct {
	// K is the number of (predicate, value) column pairs in the
	// primary relations (default 32).
	K int
	// KReverse overrides K for the reverse (object-keyed) relations.
	KReverse int
	// Mapping and ReverseMapping assign predicates to columns; nil
	// means composed hashing. Use ColorTriples to build coloring-based
	// mappings from a data sample.
	Mapping        coloring.Mapping
	ReverseMapping coloring.Mapping
	// DisableHybridOptimizer switches query planning to the naive
	// document-order flow (the paper's sub-optimal comparator, §3.3).
	DisableHybridOptimizer bool
	// DisableMerging turns off star merging in the translator (the
	// ablation of the §2.1 join-elimination claim).
	DisableMerging bool
	// Inference enables RDFS subclass reasoning: type patterns match
	// instances of subclasses via a subClassOf* closure rewrite (the
	// expansion the paper applies by hand to LUBM queries in §4.1). The
	// rewrite applies to every WHERE clause: SELECT and ASK, CONSTRUCT
	// and DESCRIBE, and the WHERE of a SPARQL Update. Templates are
	// never rewritten: DELETE WHERE deletes only the triples it names.
	Inference bool

	// QueryTimeout is the per-query deadline applied to every query on
	// this store (0 = none). A caller-supplied context deadline that is
	// earlier takes precedence. Expiry surfaces as ErrDeadlineExceeded.
	QueryTimeout time.Duration
	// MaxResultRows bounds the rows a query may materialize, counting
	// intermediate join/filter/projection outputs, not just the final
	// result (0 = unlimited). A trip surfaces as a *BudgetError
	// matching ErrBudgetExceeded.
	MaxResultRows int64
	// MaxMemoryBytes bounds the executor's row-storage and hash-table
	// allocation per query (0 = unlimited). A trip surfaces as a
	// *BudgetError matching ErrBudgetExceeded.
	MaxMemoryBytes int64

	// SlowQueryThreshold enables the slow-query log: any query whose
	// end-to-end serving time reaches the threshold is counted in the
	// metrics and reported to SlowQueryLog (0 = disabled). When both
	// the threshold and SlowQueryLog are set, every query executes with
	// operator instrumentation on — a few percent of overhead — so the
	// log can include the analyzed operator tree of the offender;
	// with a threshold but no callback only the counter is maintained
	// and execution stays uninstrumented.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one SlowQuery record per offending query.
	// It is called after the query has finished, so the callback may
	// itself query the store; it must be safe for concurrent calls.
	SlowQueryLog func(SlowQuery)

	// DataDir enables durability: a write-ahead log of checksummed
	// triple deltas plus epoch-aligned snapshot files live in this
	// directory, and Open recovers the newest consistent published
	// state from it (see DESIGN.md §9). Empty (the default) keeps the
	// store purely in-memory. A store opened on an existing DataDir
	// must use the same K/KReverse it was created with.
	DataDir string
	// Fsync forces an fsync of the WAL on every publish, making each
	// committed epoch machine-crash durable; off, a process crash
	// loses nothing but an OS crash may lose recent epochs.
	Fsync bool
	// SnapshotEvery writes a background snapshot (and rotates the WAL)
	// every n published epochs; 0 snapshots only on Close. Ignored
	// without DataDir.
	SnapshotEvery int
}

// Store is a DB2RDF store: the public API of this library.
type Store struct {
	inner   *store.Store
	opts    Options
	plans   *planCache
	metrics *Metrics
}

// Open creates an empty store — or, when Options.DataDir is set,
// recovers the persisted state from that directory and continues
// logging to it.
func Open(opts Options) (*Store, error) {
	s, err := store.New(store.Options{
		K:              opts.K,
		KReverse:       opts.KReverse,
		Mapping:        opts.Mapping,
		ReverseMapping: opts.ReverseMapping,
		Durability: store.Durability{
			Dir:           opts.DataDir,
			Fsync:         opts.Fsync,
			SnapshotEvery: opts.SnapshotEvery,
		},
	})
	if err != nil {
		return nil, err
	}
	plans := newPlanCache(defaultPlanCacheSize)
	return &Store{inner: s, opts: opts, plans: plans, metrics: &Metrics{plans: plans, inner: s}}, nil
}

// Close flushes the durability layer: it waits for any in-flight
// background snapshot, writes a final snapshot of the latest published
// epoch, and closes the write-ahead log. A store without a DataDir
// closes trivially. Close is idempotent; the store remains queryable
// afterwards but further writes fail to persist.
func (s *Store) Close() error { return s.inner.Close() }

// ColorTriples analyzes a sample of triples and returns coloring-based
// predicate mappings (direct, reverse) for budgets k and kRev,
// suitable for Options.Mapping/ReverseMapping (§2.2).
func ColorTriples(triples []rdf.Triple, k, kRev int) (coloring.Mapping, coloring.Mapping) {
	d, r, _, _ := store.BuildMappings(triples, k, kRev)
	return d, r
}

// Insert adds one triple: a one-triple LoadTriples. Writers and
// readers may run concurrently: loads take the store's write lock,
// queries read a published snapshot without locking.
func (s *Store) Insert(t rdf.Triple) error { return s.LoadTriples([]rdf.Triple{t}) }

// LoadReader bulk-loads N-Triples from r through LoadTriples,
// returning the triple count. A parse error loads nothing.
func (s *Store) LoadReader(r io.Reader) (int, error) {
	start := time.Now()
	n, err := s.inner.Load(r)
	s.metrics.observeLoad(time.Since(start), n)
	return n, err
}

// LoadTriples bulk-loads a slice of triples, publishing once. It
// interns the terms in input order, exactly as one Insert per triple
// would, then places the direct and the reverse relations
// concurrently, each entity's triples together.
func (s *Store) LoadTriples(ts []rdf.Triple) error {
	start := time.Now()
	err := s.inner.LoadTriples(ts)
	n := len(ts)
	if err != nil {
		n = 0
	}
	s.metrics.observeLoad(time.Since(start), n)
	return err
}

// LoadTriplesParallel is LoadTriples; workers is ignored.
//
// Deprecated: use LoadTriples.
func (s *Store) LoadTriplesParallel(ts []rdf.Triple, workers int) error { return s.LoadTriples(ts) }

// Len returns the number of distinct subjects stored (as of the
// latest published snapshot; never blocks on a running load).
func (s *Store) Len() int {
	return s.inner.Snapshot().EntityCount(false)
}

// StorageBytes returns the resident in-memory size of the store's
// data as of the latest published snapshot: the four DB2RDF relations
// (DPH, DS, RPH, RS) plus the dictionary's id→term store. Relation
// bytes cover chunk headers, packed int64-id vectors and null bitmaps —
// the number publish-time chunk sealing is designed to shrink;
// dictionary bytes cover the front-coded term blocks.
func (s *Store) StorageBytes() int64 {
	return s.inner.Snapshot().StorageBytes()
}

// TableBytes returns the resident bytes of the four relations alone
// (the table_resident_bytes metric).
func (s *Store) TableBytes() int64 {
	return s.inner.Snapshot().TableBytes()
}

// DictBytes returns the resident bytes of the dictionary's id→term
// store (the dict_resident_bytes metric).
func (s *Store) DictBytes() int64 {
	return s.inner.Snapshot().DictBytes()
}

// Internal exposes the underlying store for the benchmark harness and
// tools; library users should not need it.
func (s *Store) Internal() *store.Store { return s.inner }

// Binding is one variable binding; Bound is false for unbound
// (OPTIONAL) positions.
type Binding struct {
	Bound bool
	Term  rdf.Term
}

// String renders the binding.
func (b Binding) String() string {
	if !b.Bound {
		return "UNBOUND"
	}
	return b.Term.String()
}

// Results is a decoded SPARQL result set.
type Results struct {
	// Vars holds the projected variable names in order.
	Vars []string
	// Rows holds one slice of bindings per solution, parallel to Vars.
	Rows [][]Binding
	// Ask holds the answer for ASK queries.
	Ask bool
	// IsAsk marks ASK results.
	IsAsk bool
}

// Query parses, optimizes, translates and executes a SPARQL query.
// The pairs of a property-path closure (p+, p*, p?) are computed once
// per published snapshot and shared by its readers. Queries run lock-free
// against the store's atomically published snapshot: any number may
// run concurrently with each other AND with writers — a bulk load on
// another goroutine never blocks a query, which simply sees the last
// published state. The store's governance options
// (Options.QueryTimeout, MaxResultRows, MaxMemoryBytes) apply.
func (s *Store) Query(q string) (*Results, error) {
	return s.QueryContext(context.Background(), q)
}

// QueryContext is Query under a context: cancel ctx (or let its
// deadline, or the store's Options.QueryTimeout, expire) and the
// executor stops within one chunk of work, returning ErrCanceled or
// ErrDeadlineExceeded. Budget trips return a *BudgetError matching
// ErrBudgetExceeded. Any panic during execution — parser, optimizer,
// translator, or a worker goroutine in the executor — is recovered and
// returned as a *PanicError with the query text attached; the store
// stays fully usable (plan cache intact, no failed closure kept).
//
// QueryContext is SolveContext followed by Solutions.Results.
func (s *Store) QueryContext(ctx context.Context, q string) (res *Results, err error) {
	start := time.Now()
	var stats *ExecStats
	// Deferred observation runs after guard has normalized panics into
	// the final err, so the metrics see every outcome and the
	// slow-query callback may itself use the store.
	defer func() { s.observeQuery(q, time.Since(start), res.rowCount(), stats, err) }()
	defer guard(q, &err)
	var sol *Solutions
	if sol, stats, err = s.solve(ctx, q); err != nil {
		return nil, err
	}
	return sol.Results()
}

// SolveContext runs q exactly like QueryContext — same governance, plan
// cache and execution — but stops before decoding: the answer stays in
// dictionary ids, every one checked to be a term the returned Solutions
// can render. The HTTP endpoint encodes results from it, so every
// failure a query can have surfaces here, before a status line is
// written. A query that does not parse fails with a *SyntaxError.
func (s *Store) SolveContext(ctx context.Context, q string) (sol *Solutions, err error) {
	start := time.Now()
	var stats *ExecStats
	defer func() { s.observeQuery(q, time.Since(start), sol.Len(), stats, err) }()
	defer guard(q, &err)
	sol, stats, err = s.solve(ctx, q)
	return sol, err
}

// solve is the step QueryContext and SolveContext share: governance,
// one snapshot, and queryFull.
func (s *Store) solve(ctx context.Context, q string) (*Solutions, *ExecStats, error) {
	ctx, cancel := s.governCtx(ctx)
	defer cancel()
	// One snapshot load pins the whole query — data, spill/multi state,
	// and the plan epoch the plan cache validates against — to a single
	// published version; writers publishing meanwhile are invisible.
	snap := s.inner.Snapshot()
	sol, stats, _, err := s.queryFull(ctx, snap, q, s.profileQueries())
	return sol, stats, attachQuery(q, err)
}

// profileQueries reports whether public queries should run with
// operator instrumentation on: only when a slow-query log wants the
// analyzed operator tree of offenders.
func (s *Store) profileQueries() bool {
	return s.opts.SlowQueryThreshold > 0 && s.opts.SlowQueryLog != nil
}

// observeQuery feeds one served query into the metrics registry and
// the slow-query log, after the query has finished.
func (s *Store) observeQuery(q string, dur time.Duration, rows int, stats *ExecStats, err error) {
	s.metrics.observeQuery(dur, rows, err)
	if t := s.opts.SlowQueryThreshold; t > 0 && dur >= t {
		s.metrics.slowQueries.Add(1)
		if cb := s.opts.SlowQueryLog; cb != nil {
			cb(SlowQuery{Query: q, Duration: dur, Rows: rows, Err: err, Stats: stats})
		}
	}
}

// governCtx applies the store's default query timeout to ctx. An
// earlier deadline already on ctx wins (context.WithTimeout never
// extends a parent deadline).
func (s *Store) governCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.opts.QueryTimeout > 0 {
		return context.WithTimeout(ctx, s.opts.QueryTimeout)
	}
	return ctx, func() {}
}

// limits builds the executor resource budgets from the store options.
func (s *Store) limits() rel.Limits {
	return rel.Limits{MaxRows: s.opts.MaxResultRows, MaxBytes: s.opts.MaxMemoryBytes}
}

// guard converts a panic escaping the compile pipeline (parser,
// optimizer, translator — stages outside the executor's own recovery)
// into the same *PanicError shape, with the query text attached. It
// runs outermost, after the deferred lock release, so the store is
// already consistent when it fires. The
// callers' results are still nil then: a panicking call never returns.
func guard(q string, err *error) {
	if p := recover(); p != nil {
		*err = attachQuery(q, rel.NewPanicError(p))
	}
}

// attachQuery labels panic-derived errors with the offending query
// text; governance and ordinary errors pass through unchanged.
func attachQuery(q string, err error) error {
	var pe *rel.PanicError
	if errors.As(err, &pe) {
		return fmt.Errorf("db2rdf: query %q: %w", q, err)
	}
	return err
}

// queryOn is Query against a specific snapshot. Internal callers that
// run secondary queries while servicing a public call (CONSTRUCT,
// Export) use it so every constituent query reads the same published
// version.
func (s *Store) queryOn(ctx context.Context, snap *store.Snapshot, q string) (*Results, error) {
	sol, _, _, err := s.queryFull(ctx, snap, q, false)
	if err != nil {
		return nil, err
	}
	return sol.Results()
}

// queryFull executes q once against snap, returning the undecoded
// solutions, the execution profile (nil unless profile is set) and the
// compiled plan that ran (nil when compilation itself failed), for
// EXPLAIN ANALYZE and the slow-query log.
//
// Repeated query texts skip compile altogether via the store's
// compiled-plan cache, whose plans are valid at the plan epoch they
// were compiled at (plancache.go) and run on whichever snapshot the
// reader holds, closures included.
func (s *Store) queryFull(ctx context.Context, snap *store.Snapshot, q string, profile bool) (*Solutions, *ExecStats, *compiledPlan, error) {
	// A live (write-lock) snapshot sees mid-update content that is
	// newer than the published state of the same epoch, so it must
	// bypass the plan cache in both directions.
	cacheable := !snap.Live()
	if cacheable {
		if cp, ok := s.plans.get(q, snap); ok {
			sol, stats, err := s.executeCompiledStats(ctx, snap, cp, profile)
			return sol, stats, cp, err
		}
	}
	parsed, err := parseQuery(q)
	if err != nil {
		return nil, nil, nil, err
	}
	cp, err := s.compile(snap, parsed)
	if err != nil {
		return nil, nil, nil, err
	}
	cp.key = q
	if cacheable {
		s.plans.put(cp)
	}
	sol, stats, err := s.executeCompiledStats(ctx, snap, cp, profile)
	return sol, stats, cp, err
}

// compile is the one place a query is compiled, whichever entry point
// it came through: the inference rewrite (under Options.Inference),
// filter unification, naming the property-path closures, the hybrid
// optimizer's data flow (§3.1) or the naive flow, the merged query
// plan (§3.2) and its translation (§3.3) into a bound relational
// query, which the plan executes as is. It rewrites parsed in place
// and reads no triples: a closure's pairs are computed when the plan
// runs.
func (s *Store) compile(snap *store.Snapshot, parsed *sparql.Query) (*compiledPlan, error) {
	if s.opts.Inference {
		inferenceRewrite(parsed)
	}
	sparql.UnifyEqualityFilters(parsed)
	cp := &compiledPlan{planEpoch: snap.PlanEpoch(), epoch: snap.Epoch(), parsed: parsed, closures: sparql.SealClosures(parsed)}
	var err error
	if s.opts.DisableHybridOptimizer {
		cp.exec, cp.flow = optimizer.OptimizeNaive(parsed, snap.StatsView())
	} else if cp.exec, cp.flow, err = optimizer.Optimize(parsed, snap.StatsView()); err != nil {
		return nil, err
	}
	view := &lookupView{Snapshot: snap}
	backend := translator.NewDB2RDF(view)
	planner := translator.NewPlanner(backend)
	planner.SetMerging(!s.opts.DisableMerging)
	if cp.tr, err = translator.Translate(parsed, planner.BuildPlan(cp.exec), backend); err != nil {
		return nil, err
	}
	cp.absent = view.absent
	if testHookCompiled != nil {
		testHookCompiled(s, snap, cp)
	}
	return cp, nil
}

// testHookCompiled, when a test sets it, sees every plan compile
// builds.
var testHookCompiled func(s *Store, snap *store.Snapshot, cp *compiledPlan)

// lookupView is the snapshot as the translator reads it, noting
// whether any constant it looked up was absent from the dictionary.
type lookupView struct {
	*store.Snapshot
	absent bool
}

// LookupID implements translator.StoreView.
func (v *lookupView) LookupID(t rdf.Term) (int64, bool) {
	id, ok := v.Snapshot.LookupID(t)
	if !ok {
		v.absent = true
	}
	return id, ok
}

// run compiles and executes a query AST built inside the store
// (DESCRIBE, Update's WHERE) once against snap, bypassing the plan
// cache, and decodes the answer.
func (s *Store) run(ctx context.Context, snap *store.Snapshot, parsed *sparql.Query) (*Results, error) {
	cp, err := s.compile(snap, parsed)
	if err != nil {
		return nil, err
	}
	sol, _, err := s.executeCompiledStats(ctx, snap, cp, false)
	if err != nil {
		return nil, err
	}
	return sol.Results()
}

// Explanation reports how a query would run.
type Explanation struct {
	Flow string // the optimal (or naive) flow tree
	Tree string // the execution tree
	Plan string // the merged query plan
	SQL  string // the generated SQL

	// PlanCached reports whether a compiled plan for this exact query
	// text is currently cached and valid at the latest snapshot's plan
	// epoch (i.e. Query would skip the compile pipeline).
	PlanCached bool
	// PlanCacheHits and PlanCacheMisses are the store-lifetime
	// compiled-plan cache counters.
	PlanCacheHits   uint64
	PlanCacheMisses uint64

	// Governance settings that would apply when this query runs:
	// the effective deadline (zero time = none; the earlier of the
	// caller context's deadline and Options.QueryTimeout) and the row
	// and memory budgets (0 = unlimited).
	Deadline       time.Time
	MaxResultRows  int64
	MaxMemoryBytes int64
}

// Explain returns the optimizer and translator artifacts for a query
// without executing it. Like Query, it runs against the latest
// published snapshot.
func (s *Store) Explain(q string) (*Explanation, error) {
	return s.ExplainContext(context.Background(), q)
}

// ExplainContext is Explain under a context; the reported governance
// fields reflect ctx's deadline combined with the store options.
func (s *Store) ExplainContext(ctx context.Context, q string) (expl *Explanation, err error) {
	defer guard(q, &err)
	ctx, cancel := s.governCtx(ctx)
	defer cancel()
	snap := s.inner.Snapshot()
	parsed, err := parseQuery(q)
	if err != nil {
		return nil, err
	}
	cp, err := s.compile(snap, parsed)
	if err != nil {
		return nil, attachQuery(q, err)
	}
	expl = s.explanation(ctx, snap, q)
	expl.render(cp)
	return expl, nil
}

// explanation records what applies to q when it runs: the plan cache's
// state for q at snap and the governance under ctx. render completes it
// from the plan.
func (s *Store) explanation(ctx context.Context, snap *store.Snapshot, q string) *Explanation {
	expl := &Explanation{
		PlanCached:     s.plans.contains(q, snap),
		MaxResultRows:  s.opts.MaxResultRows,
		MaxMemoryBytes: s.opts.MaxMemoryBytes,
	}
	expl.PlanCacheHits, expl.PlanCacheMisses = s.plans.stats()
	if d, ok := ctx.Deadline(); ok {
		expl.Deadline = d
	}
	return expl
}

// render fills in the optimizer and translator artifacts of cp.
func (e *Explanation) render(cp *compiledPlan) {
	e.Flow, e.Tree, e.Plan, e.SQL = cp.flow.String(), cp.exec.String(), cp.tr.Plan.String(), cp.tr.SQL
}

// PlanCacheStats returns the lifetime hit and miss counts of the
// compiled-plan cache.
func (s *Store) PlanCacheStats() (hits, misses uint64) { return s.plans.stats() }

// ResetPlanCache drops every cached compiled plan (counters are kept).
// Useful for cold-plan benchmarking; normal invalidation is automatic,
// keyed on the snapshot's plan epoch.
func (s *Store) ResetPlanCache() { s.plans.reset() }

// executeCompiledStats runs a compiled plan against the snapshot's
// database under ctx and the store's resource budgets, with optional
// operator instrumentation; when profile is set the execution profile
// is returned (present even on failure, so aborted queries can be
// diagnosed). The plan's fields are read-only, so concurrent readers
// may execute the same cached plan; an aborted execution leaves the
// cached plan valid.
func (s *Store) executeCompiledStats(ctx context.Context, snap *store.Snapshot, cp *compiledPlan, profile bool) (*Solutions, *ExecStats, error) {
	tr := cp.tr
	out := &Solutions{IsAsk: tr.Ask}
	if tr.Query == nil {
		// Empty pattern: ASK {} is true; SELECT over {} yields one
		// empty solution (the SPARQL unit solution mapping), with every
		// projected variable unbound.
		if tr.Ask {
			out.Ask = true
			return out, nil, nil
		}
		out.Vars = cp.parsed.ProjectedVars()
		out.rows = []rel.Row{rel.NullRow(len(out.Vars))}
		return out, nil, nil
	}
	db, err := s.closureDB(ctx, snap, cp)
	if err != nil {
		return nil, nil, err
	}
	var rs *rel.ResultSet
	var stats *ExecStats
	if profile {
		rs, stats, err = db.AnalyzeContext(ctx, tr.Query, s.limits())
	} else {
		rs, err = db.ExecContext(ctx, tr.Query, s.limits())
	}
	if err != nil {
		if isGovernanceErr(err) {
			// Keep governance errors unwrapped beyond errors.Is/As needs:
			// callers match them directly and the SQL is an internal
			// artifact that would only obscure the typed error.
			return nil, stats, err
		}
		return nil, stats, fmt.Errorf("db2rdf: executing generated SQL: %w", err)
	}
	if tr.Ask {
		out.Ask = len(rs.Rows) > 0
		return out, stats, nil
	}
	out.Vars = tr.Columns[:len(tr.Columns)-tr.Hidden]
	out.rows = rs.Rows
	out.terms = snap.Terms()
	if err := out.check(); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// MustQuery is Query for tests and examples; it panics on error.
func (s *Store) MustQuery(q string) *Results {
	r, err := s.Query(q)
	if err != nil {
		panic(err)
	}
	return r
}
