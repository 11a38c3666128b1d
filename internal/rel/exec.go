package rel

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// ResultSet is the outcome of a query.
type ResultSet struct {
	Columns []string
	Rows    []Row // views into the executor's final slab
}

// errUnbound rejects a Query that Bind has not accepted.
var errUnbound = errors.New("sql: query is not bound (rel.Bind)")

// Exec executes a bound query with no deadline and no budgets.
func (db *DB) Exec(q *Query) (*ResultSet, error) {
	return db.ExecContext(context.Background(), q, Limits{})
}

// exec is one statement execution: the database plus the query's
// governance state (cancellation signal and budget counters), threaded
// through every operator so long-running loops can checkpoint. prof is
// nil unless the execution is profiled (AnalyzeContext); every
// instrumentation hook is behind a nil check so the unprofiled path
// does no profiling work at all.
type exec struct {
	db   *DB
	gov  *govern
	prof *profiler
	bufs []rowBuf // per morsel worker; see workBufs
}

// ExecContext executes a bound query under ctx and lim (see govern.go
// for the governance model). Cancellation and deadline expiry surface
// as ErrCanceled / ErrDeadlineExceeded, budget trips as *BudgetError,
// each within one chunk (checkpointRows rows) of work. Any panic
// raised during execution — in an operator, a compiled-expression
// closure, or a morsel worker — is recovered and returned as a
// *PanicError, leaving the DB fully usable.
func (db *DB) ExecContext(ctx context.Context, q *Query, lim Limits) (*ResultSet, error) {
	return db.execContext(ctx, q, lim, nil)
}

// execContext is the shared body of ExecContext (prof == nil) and
// AnalyzeContext (prof records per-operator and per-CTE actuals).
func (db *DB) execContext(ctx context.Context, q *Query, lim Limits, prof *profiler) (rs *ResultSet, err error) {
	defer func() {
		if p := recover(); p != nil {
			rs, err = nil, NewPanicError(p)
		}
	}()
	b := q.bound
	if b == nil {
		return nil, errUnbound
	}
	ex := &exec{db: db, gov: newGovern(ctx, lim), prof: prof}
	if prof != nil {
		defer func() {
			prof.stats.BudgetRowsCharged = ex.gov.rows.Load()
			prof.stats.BudgetBytesCharged = ex.gov.bytes.Load()
		}()
	}
	env := make([]batch, len(b.ctes))
	for i := range b.ctes {
		if err := ex.gov.check(CkCore); err != nil {
			return nil, err
		}
		cte := &b.ctes[i]
		if prof != nil {
			prof.scope = cte.name
		}
		rows, err := ex.evalSelect(cte.sel, env)
		if err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", q.CTEs[i].Name, err)
		}
		if prof != nil {
			prof.stats.CTERows[cte.name] = int64(rows.n)
		}
		env[i] = rows
	}
	if prof != nil {
		prof.scope = ""
	}
	rows, err := ex.evalSelect(b.body, env)
	if err != nil {
		return nil, err
	}
	// The one place rows become Row headers: views into the final slab,
	// charged like the cells they point at.
	if err := ex.gov.chargeBytes(int64(rows.n) * rowHeaderBytes); err != nil {
		return nil, err
	}
	rs = &ResultSet{Columns: b.body.cores[0].names, Rows: make([]Row, rows.n)}
	for i := range rs.Rows {
		rs.Rows[i] = rows.row(i)
	}
	return rs, nil
}

// evalSelect evaluates one select: its cores, UNION ALL-ed, then ORDER
// BY and LIMIT/OFFSET over the combined rows. env holds the rows of the
// CTEs evaluated so far, by index.
func (ex *exec) evalSelect(bs *boundSelect, env []batch) (batch, error) {
	s := bs.sel
	// LIMIT pushdown: with a single core, no ORDER BY and no DISTINCT,
	// the core's rows come out in their final order, so only the first
	// OFFSET+LIMIT of them can reach the output.
	rowCap := int64(-1)
	if len(s.Cores) == 1 && len(s.OrderBy) == 0 && !s.Cores[0].Distinct && s.Limit >= 0 {
		rowCap = s.Limit
		if s.Offset > 0 {
			rowCap += s.Offset
		}
	}
	var out batch
	for i, core := range bs.cores {
		rows, err := ex.evalCore(core, env, rowCap)
		if err != nil {
			return batch{}, err
		}
		if i == 0 {
			out = rows
			continue
		}
		// The first arm's slab may be shared: the first append copies it.
		out.n, out.cells = out.n+rows.n, append(out.cells[:len(out.cells):len(out.cells)], rows.cells...)
	}
	if len(s.OrderBy) > 0 {
		var err error
		if out, err = ex.applyOrderBy(out, s.OrderBy); err != nil {
			return batch{}, err
		}
	}
	if s.Offset > 0 || s.Limit >= 0 {
		lo, hi := int64(0), int64(out.n)
		if s.Offset > 0 {
			lo = min(s.Offset, hi)
		}
		if s.Limit >= 0 && hi-lo > s.Limit {
			hi = lo + s.Limit
		}
		before := out.n
		out = out.slice(int(lo), int(hi))
		if ex.prof != nil {
			ex.opEnd(time.Now(), OpStat{Kind: "limit", RowsIn: int64(before), RowsOut: int64(out.n), Workers: 1})
		}
	}
	return out, nil
}

// applyOrderBy returns rows sorted stably on items: keys are computed
// once per row, an index permutation is sorted, and the rows are copied
// out in its order.
func (ex *exec) applyOrderBy(rows batch, items []OrderItem) (batch, error) {
	t0 := ex.opStart()
	nk := len(items)
	perm := make([]int32, rows.n)
	keys := make([]Value, rows.n*nk)
	keyOf := make([]compiledExpr, nk)
	for j, it := range items {
		keyOf[j] = ex.db.compileExpr(it.Expr, 0)
	}
	t := ticker{g: ex.gov, site: CkOrderBy}
	if err := t.flush(); err != nil {
		return batch{}, err
	}
	for i := range perm {
		if err := t.step(); err != nil {
			return batch{}, err
		}
		perm[i] = int32(i)
		row := rows.row(i)
		for j, key := range keyOf {
			v, err := key(row)
			if err != nil {
				return batch{}, err
			}
			keys[i*nk+j] = v
		}
	}
	// The comparison sort itself is not interruptible; the checkpoint
	// above bounds the uncancellable stretch to O(n log n) compares over
	// rows that already fit in (and were charged against) the budget.
	if err := t.flush(); err != nil {
		return batch{}, err
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ka, kb := keys[int(perm[a])*nk:], keys[int(perm[b])*nk:]
		for j, it := range items {
			// NULLs sort last (first under DESC).
			if ka[j].IsNull() || kb[j].IsNull() {
				if ka[j].IsNull() && kb[j].IsNull() {
					continue
				}
				less := kb[j].IsNull()
				if it.Desc {
					less = !less
				}
				return less
			}
			c, _ := Compare(ka[j], kb[j])
			if c == 0 {
				continue
			}
			if it.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := batch{width: rows.width, n: rows.n, cells: make([]Cell, len(rows.cells))}
	for i, p := range perm {
		copy(out.row(i), rows.row(int(p)))
	}
	ex.opEnd(t0, OpStat{Kind: "order-by", RowsIn: int64(rows.n), RowsOut: int64(out.n), Workers: 1})
	return out, nil
}

// dedup removes duplicate rows, keeping first occurrences in order.
// Kept rows are chained by a hash of their ids — head holds 1 + the
// last kept row of each hash (0, a missing hash, is none), next the one
// kept before it — and candidates are verified id by id. With no
// duplicate, rows come back as they are.
func (ex *exec) dedup(rows batch) (batch, error) {
	t0 := ex.opStart()
	t := ticker{g: ex.gov, site: CkDedup}
	if err := t.flush(); err != nil {
		return batch{}, err
	}
	head := make(map[uint64]int32)
	next := make([]int32, rows.n)
	kept := ex.workBufs(1, rows.width)
input:
	for i := 0; i < rows.n; i++ {
		if err := t.step(); err != nil {
			return batch{}, err
		}
		r := rows.row(i)
		h := rowKeyHash(r)
		for k := head[h] - 1; k >= 0; k = next[k] {
			if slices.Equal(rows.row(int(k)), r) {
				continue input
			}
		}
		head[h], next[i] = int32(i)+1, head[h]-1
		kept[0].push(r, nil)
	}
	out := rows
	if kept[0].n < rows.n {
		out = flatten(rows.width, kept)
	}
	ex.opEnd(t0, OpStat{Kind: "dedup", RowsIn: int64(rows.n), RowsOut: int64(out.n), Workers: 1})
	return out, nil
}

// evalCore evaluates one SELECT core. Its last producer — the comma
// join, the last join of a one-unit chain, or a one-unit core's read —
// runs the core's emit step, so the rows it returns are the core's
// output rows. rowCap >= 0 bounds their number (LIMIT pushdown); the
// caller guarantees their order is final (no ORDER BY, no DISTINCT), so
// only the first rowCap can appear in the result.
func (ex *exec) evalCore(bc *boundCore, env []batch, rowCap int64) (batch, error) {
	if err := ex.gov.check(CkCore); err != nil {
		return batch{}, err
	}
	em := ex.newEmitter(bc)
	var cur *relation
	var err error
	if len(bc.units) == 2 {
		var units [2]*relation
		for i := range bc.units {
			if units[i], err = ex.buildUnit(&bc.units[i], env, nil, -1); err != nil {
				return batch{}, err
			}
		}
		cur, err = ex.joinUnits(units, &bc.links, em)
	} else {
		cur, err = ex.buildUnit(&bc.units[0], env, em, rowCap)
	}
	if err != nil {
		return batch{}, err
	}
	out := cur.rows
	if ex.prof != nil {
		// One line per fused core, naming the operator that emitted its
		// rows; a projection of a CTE batch is its own line.
		if ops := ex.prof.stats.Ops; len(ops) > 0 && ops[len(ops)-1].Kind != "project" {
			last := ops[len(ops)-1]
			ex.opEnd(time.Now(), OpStat{Kind: "project", Label: "emit " + last.Kind, RowsIn: int64(out.n), RowsOut: int64(out.n), Workers: last.Workers})
		}
	}
	if rowCap >= 0 && int64(out.n) > rowCap {
		if ex.prof != nil {
			ex.opEnd(time.Now(), OpStat{Kind: "limit", Label: "pushdown", RowsIn: int64(out.n), RowsOut: rowCap, Workers: 1})
		}
		out = out.slice(0, int(rowCap))
	}
	if bc.core.Distinct {
		return ex.dedup(out)
	}
	return out, nil
}

// buildUnit materializes one unit: its FROM item with its WHERE
// conjuncts pushed in — index-accelerated on a base table — and its
// LEFT OUTER JOIN chain. em is set when the unit is its core's only
// one: its last producer (the chain's last join, or else the read of
// its FROM item) emits the core's rows, of which only the first rowCap
// (when >= 0) are read. Without em a base table with no chain is left
// unread, for the core's join to scan or probe.
func (ex *exec) buildUnit(u *boundUnit, env []batch, em *emitter, rowCap int64) (*relation, error) {
	left, err := ex.buildPrimary(u.from, env)
	if err != nil {
		return nil, err
	}
	joins := u.from.joins
	if em != nil && len(joins) == 0 {
		return ex.read(left, u.where, em, rowCap)
	}
	switch {
	case len(u.where) == 0:
	case left.base != nil:
		left, err = ex.scanWithFilters(left, u.where, nil)
	default:
		left, err = ex.filterRelation(left, u.where, nil)
	}
	if err != nil {
		return nil, err
	}
	for i := range joins {
		j := &joins[i]
		right, err := ex.buildPrimary(j.right, env)
		if err != nil {
			return nil, err
		}
		spec := joinSpec{links: j.links, residual: j.residual, outer: true}
		if i == len(joins)-1 {
			spec.em = em
		}
		if left, err = ex.join(left, right, spec); err != nil {
			return nil, err
		}
	}
	return left, nil
}

// read runs the read of r, a core's only unit with no join chain,
// under the unit's WHERE conjuncts: an index scan or the vectorized
// scan of a base table, or a filter or projection of a CTE batch. It
// is the core's last producer, so it emits through em. A projection
// maps rows 1:1, so it reads only the first rowCap (when >= 0).
func (ex *exec) read(r *relation, where []Expr, em *emitter, rowCap int64) (*relation, error) {
	if r.base == nil {
		if len(where) == 0 && em.res == nil && rowCap >= 0 && int64(r.rows.n) > rowCap {
			r = &relation{rows: r.rows.slice(0, int(rowCap))}
		}
		return ex.filterRelation(r, where, em)
	}
	var err error
	if len(where) > 0 {
		if r, err = ex.scanWithFilters(r, where, em); err != nil {
			return nil, err
		}
	}
	return ex.materialize(r, em)
}

// buildPrimary resolves a table or CTE reference. A base table is an
// unread scan of the columns the core references through the item's
// alias, nothing else.
func (ex *exec) buildPrimary(bf *boundFrom, env []batch) (*relation, error) {
	if bf.cte >= 0 {
		return &relation{rows: env[bf.cte]}, nil
	}
	t := ex.db.table(bf.table)
	if t == nil {
		return nil, fmt.Errorf("sql: unknown table %q", bf.table)
	}
	src, err := t.columnSet(bf)
	if err != nil {
		return nil, err
	}
	r := &relation{base: t, src: src, rows: batch{width: len(src)}}
	// A lateral item is fused with the read of the base table it
	// correlates to (unpivot.go): its cells are read from the chunks per
	// pair and stay out of the rows.
	if bf.lateral != nil {
		if r.unpivot, err = newUnpivot(t, bf.lateral); err != nil {
			return nil, err
		}
		r.rows.width += r.unpivot.width
	}
	return r, nil
}

// columnSet resolves the columns bf references to table positions, in
// bf.cols order, failing on a name the table does not have.
func (t *Table) columnSet(bf *boundFrom) ([]int, error) {
	src := make([]int, len(bf.cols))
	for i, name := range bf.cols {
		c, ok := t.colIdx[name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %s.%s (have %v)", bf.alias, name, t.names)
		}
		src[i] = c
	}
	return src, nil
}

// scanWithFilters applies where, the WHERE conjuncts of r's unit, to
// r, the scan of its base table — and, when a lateral item is fused
// into r, of its pairs — using a hash index for the first "col =
// constant" conjunct on an indexed column if any. The index scan emits
// through em; without such a conjunct the scan is deferred, and r comes
// back unread.
func (ex *exec) scanWithFilters(r *relation, where []Expr, em *emitter) (*relation, error) {
	t := r.base
	// An index-usable equality is an indexed table column equal to an
	// int literal. A conjunct with any other constant stays with the
	// rest, whose compiled predicate decides it as it would without an
	// index.
	key := slices.IndexFunc(where, func(c Expr) bool {
		col, _, ok := intEquality(c)
		return ok && col.pos < len(r.src) && t.HasIndex(col.Column)
	})
	if key < 0 {
		// Defer the filters: a later index nested-loop join can apply
		// them per probed row, avoiding a filtered copy of the table,
		// and otherwise the scan runs them chunk-wise.
		r.pending = where
		return r, nil
	}
	col, id, _ := intEquality(where[key])
	rest := append(where[:key:key], where[key+1:]...)
	t0 := ex.opStart()
	pre, run := ex.startUnpivot(r, rest)
	pred := ex.db.compilePred(pre, 0)
	ids, _ := t.IndexLookup(col.Column, id)
	rd := t.reader(r.src)
	width := em.width(r.rows.width)
	tk := ticker{g: ex.gov, site: CkFilter, rowBytes: int64(width) * cellBytes}
	if run != nil {
		tk.site = CkUnpivot
	}
	if err := tk.flush(); err != nil {
		return nil, err
	}
	if err := em.start(ex.gov); err != nil {
		return nil, err
	}
	kept := ex.workBufs(1, width)
	uw := run.worker(&tk, &kept[0], false, em)
	for _, id := range ids {
		row := rd.rowAt(int(id))
		ok, err := pred(row)
		switch {
		case err != nil:
		case !ok:
			err = tk.step()
		case run != nil:
			err = uw.expand(int(id), row, run.all, nil, nil, false)
		default:
			err = em.put(&tk, &kept[0], row, nil)
		}
		if err != nil {
			return nil, err
		}
	}
	uw.finish()
	if err := tk.flush(); err != nil {
		return nil, err
	}
	out := &relation{rows: flatten(width, kept)}
	ex.opEnd(t0, run.opStat(OpStat{Kind: "index-scan", Label: t.Name + "." + col.Column, RowsIn: int64(len(ids)), RowsOut: int64(out.rows.n),
		ColsRead: len(r.src), ColsTotal: len(t.Schema), Workers: 1}))
	return out, nil
}

// filterRelation keeps the rows of r, a read relation, that pass every
// one of conds (over unit 0) and emits them through em. With no conds
// it is the projection of a CTE batch, which an identity core (em
// whole) skips: its rows are the batch itself.
func (ex *exec) filterRelation(r *relation, conds []Expr, em *emitter) (*relation, error) {
	t0 := ex.opStart()
	kind, site := "filter", CkFilter
	if len(conds) == 0 {
		kind, site = "project", CkProject
		if em.whole() {
			if err := ex.gov.check(CkProject); err != nil {
				return nil, err
			}
			ex.opEnd(t0, OpStat{Kind: kind, Label: "identity", RowsIn: int64(r.rows.n), RowsOut: int64(r.rows.n), Workers: 1})
			return r, nil
		}
	}
	pred := ex.db.compilePred(conds, 0)
	width := em.width(r.rows.width)
	w := planWorkers(r.rows.n)
	parts := ex.workBufs(w, width)
	err := parallelChunks(r.rows.n, w, func(chunk, lo, hi int) error {
		tk := ticker{g: ex.gov, site: site, rowBytes: int64(width) * cellBytes}
		if err := tk.flush(); err != nil {
			return err
		}
		if err := em.start(ex.gov); err != nil {
			return err
		}
		local := &parts[chunk]
		for i := lo; i < hi; i++ {
			row := r.rows.row(i)
			keep, err := pred(row)
			switch {
			case err != nil:
			case keep:
				err = em.put(&tk, local, row, nil)
			default:
				err = tk.step()
			}
			if err != nil {
				return err
			}
		}
		return tk.flush()
	})
	if err != nil {
		return nil, err
	}
	kept := 0
	for _, p := range parts {
		kept += p.n
	}
	out := &relation{rows: r.rows} // every row passed, as it was
	if kept < r.rows.n || em != nil && em.cells != nil {
		out.rows = flatten(width, parts)
	}
	ex.opEnd(t0, OpStat{Kind: kind, RowsIn: int64(r.rows.n), RowsOut: int64(out.rows.n), Workers: w})
	return out, nil
}

// materialize runs a deferred base-table scan with its pending
// filters on the vectorized path (zone-map pruning, selection vectors),
// detaching the relation from its base table; the scan emits through
// em. A relation already read is returned as it is.
func (ex *exec) materialize(r *relation, em *emitter) (*relation, error) {
	if r.base == nil {
		return r, nil
	}
	return ex.vecScan(r, em)
}

// emitter is a core's emit step. The core's last producer — a join
// kernel, a scan, an index scan, the unpivot's expand, or a filter or
// projection of a CTE batch — builds each candidate row and hands it to
// put, which checks the core's residual and writes the row's items, in
// the layout Bind fixed, into the worker's rowBuf. flatten then makes
// the core's final slab, so every kept row is written once. A nil
// emitter keeps rows whole and checks nothing: the producers before a
// core's last (unit reads for its join, chain joins before the last).
type emitter struct {
	// cells is boundCore.cells: per item, the candidate position it
	// copies, exprItem or deadItem; nil for an identity core, whose
	// rows are kept whole.
	cells []int
	exprs []cellExpr              // per item, set where it is evaluated; nil when none is
	res   func(Row) (bool, error) // the core's residual; nil when none
}

// keepWhole is the emit step of an identity core with no residual.
var keepWhole = &emitter{}

// newEmitter compiles bc's emit step — its evaluated items and its
// residual, over the joined row — once per execution.
func (ex *exec) newEmitter(bc *boundCore) *emitter {
	if bc.identity && len(bc.residual) == 0 {
		return keepWhole
	}
	em := &emitter{}
	if len(bc.residual) > 0 {
		em.res = ex.db.compilePred(bc.residual, bc.shift())
	}
	if bc.identity {
		return em
	}
	em.cells = bc.cells
	for i, c := range bc.cells {
		if c == exprItem {
			if em.exprs == nil {
				em.exprs = make([]cellExpr, len(bc.cells))
			}
			em.exprs[i] = ex.db.compileCell(bc.core.Items[i].Expr, bc.shift())
		}
	}
	return em
}

// whole reports whether the emit step keeps every candidate as it is.
func (e *emitter) whole() bool { return e == nil || e.cells == nil && e.res == nil }

// width is the cells the emit step writes per row of candidates of in
// cells.
func (e *emitter) width(in int) int {
	if e == nil || e.cells == nil {
		return in
	}
	return len(e.cells)
}

// reader returns a reader of the table columns the emit step writes,
// item by item, for a scan reading rd's: the scan then reads them
// straight into place. It is nil when the residual, an evaluated item
// or a dead one needs the scan's rows.
func (e *emitter) reader(rd *tableReader) *tableReader {
	if e.whole() {
		return rd
	}
	if e.res != nil || e.exprs != nil || slices.Contains(e.cells, deadItem) {
		return nil
	}
	out := &tableReader{cols: make([]*colVec, len(e.cells)), nrows: rd.nrows, tomb: rd.tomb}
	for i, c := range e.cells {
		out.cols[i] = rd.cols[c]
	}
	return out
}

// start checks a worker of the core's last producer in at the
// projection's site before it emits.
func (e *emitter) start(g *govern) error {
	if e == nil {
		return nil
	}
	return g.check(CkProject)
}

// put is the emit step for one candidate, l followed by r (r empty for
// a producer that builds one row): it writes the candidate's items to
// out when the residual accepts it, and ticks tk, charging an emitted
// row or one unit of work for a rejected one. The candidate is copied
// into out's scratch row when the residual or an evaluated item reads
// it whole.
func (e *emitter) put(tk *ticker, out *rowBuf, l, r Row) error {
	if e == nil {
		out.push(l, r)
		return tk.emit()
	}
	if len(r) > 0 && (e.res != nil || e.exprs != nil) {
		row := out.scratch(len(l) + len(r))
		copy(row[copy(row, l):], r)
		l, r = row, nil
	}
	if e.res != nil {
		ok, err := e.res(l)
		if err != nil {
			return err
		}
		if !ok {
			return tk.step()
		}
	}
	if e.cells == nil {
		out.push(l, r)
		return tk.emit()
	}
	dst := out.grow(1)
	for i, c := range e.cells {
		switch {
		case c >= len(l):
			dst[i] = r[c-len(l)]
		case c >= 0:
			dst[i] = l[c]
		case c == deadItem:
			dst[i] = NullCell // never observed downstream (deadcols.go)
		default:
			v, err := e.exprs[i](l)
			if err != nil {
				out.pop()
				return err
			}
			dst[i] = v
		}
	}
	return tk.emit()
}
