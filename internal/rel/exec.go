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
	// projection is an order-preserving 1:1 row map, so only the first
	// OFFSET+LIMIT input rows can reach the output.
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

// evalCore evaluates one SELECT core. rowCap >= 0 bounds the number of
// projected rows (LIMIT pushdown); the caller guarantees projection
// order is final (no ORDER BY, no DISTINCT), so only the first rowCap
// joined rows can appear in the result.
func (ex *exec) evalCore(bc *boundCore, env []batch, rowCap int64) (batch, error) {
	if err := ex.gov.check(CkCore); err != nil {
		return batch{}, err
	}
	var units [2]*relation
	for i := range bc.units {
		u, err := ex.buildUnit(&bc.units[i], env)
		if err != nil {
			return batch{}, err
		}
		units[i] = u
	}
	cur := units[0]
	var err error
	if len(bc.units) == 2 {
		if cur, err = ex.joinUnits(units, &bc.links); err != nil {
			return batch{}, err
		}
	}
	if cur, err = ex.materialize(cur); err != nil {
		return batch{}, err
	}
	if len(bc.residual) > 0 {
		if cur, err = ex.filterRelation(cur, bc.residual, bc.shift()); err != nil {
			return batch{}, err
		}
	}

	if rowCap >= 0 && int64(cur.rows.n) > rowCap {
		if ex.prof != nil {
			ex.opEnd(time.Now(), OpStat{Kind: "limit", Label: "pushdown", RowsIn: int64(cur.rows.n), RowsOut: rowCap, Workers: 1})
		}
		cur = &relation{rows: cur.rows.slice(0, int(rowCap))}
	}
	return ex.project(bc, cur)
}

// buildUnit materializes one unit: its FROM item with its WHERE
// conjuncts pushed in — index-accelerated on a base table — and its
// LEFT OUTER JOIN chain.
func (ex *exec) buildUnit(u *boundUnit, env []batch) (*relation, error) {
	left, err := ex.buildPrimary(u.from, env)
	if err != nil {
		return nil, err
	}
	switch {
	case len(u.where) == 0:
	case left.base != nil:
		left, err = ex.scanWithFilters(left, u)
	default:
		left, err = ex.filterRelation(left, u.where, 0)
	}
	if err != nil {
		return nil, err
	}
	for i := range u.from.joins {
		j := &u.from.joins[i]
		right, err := ex.buildPrimary(j.right, env)
		if err != nil {
			return nil, err
		}
		left, err = ex.join(left, right, joinSpec{links: j.links, residual: j.residual, outer: true})
		if err != nil {
			return nil, err
		}
	}
	return left, nil
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

// scanWithFilters applies u's WHERE conjuncts to r, the scan of its
// base table — and, when a lateral item is fused into r, of its pairs —
// using a hash index for the first "col = constant" conjunct on an
// indexed column if any.
func (ex *exec) scanWithFilters(r *relation, u *boundUnit) (*relation, error) {
	t := r.base
	// An index-usable equality is an indexed table column equal to an
	// int literal. A conjunct with any other constant stays with the
	// rest, whose compiled predicate decides it as it would without an
	// index.
	key := slices.IndexFunc(u.where, func(c Expr) bool {
		col, _, ok := intEquality(c)
		return ok && col.pos < len(r.src) && t.HasIndex(col.Column)
	})
	if key < 0 {
		// Defer the filters: a later index nested-loop join can apply
		// them per probed row, avoiding a filtered copy of the table,
		// and otherwise the scan runs them chunk-wise.
		r.pending = u.where
		return r, nil
	}
	col, id, _ := intEquality(u.where[key])
	rest := append(u.where[:key:key], u.where[key+1:]...)
	t0 := ex.opStart()
	pre, run := ex.startUnpivot(r, rest)
	pred := ex.db.compilePred(pre, 0)
	ids, _ := t.IndexLookup(col.Column, id)
	rd := t.reader(r.src)
	width := r.rows.width
	tk := ticker{g: ex.gov, site: CkFilter, rowBytes: int64(width) * cellBytes}
	if run != nil {
		tk.site = CkUnpivot
	}
	if err := tk.flush(); err != nil {
		return nil, err
	}
	kept := ex.workBufs(1, width)
	uw := run.worker(&tk, &kept[0], false)
	for _, id := range ids {
		// A plain row is read straight into the rowBuf and dropped if the
		// filters reject it; an unpivoted one is expanded from scratch.
		var row Row
		if run != nil {
			row = rd.rowAt(int(id))
		} else {
			row = kept[0].grow(1)
			rd.rowInto(row, int(id))
		}
		ok, err := pred(row)
		if err != nil {
			return nil, err
		}
		switch {
		case !ok:
			if run == nil {
				kept[0].pop()
			}
			err = tk.step()
		case run != nil:
			err = uw.expand(int(id), row, run.all, nil, nil, false)
		default:
			err = tk.emit()
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
// one of conds, compiled with unit 1 at shift (compileExpr).
func (ex *exec) filterRelation(r *relation, conds []Expr, shift int) (*relation, error) {
	t0 := ex.opStart()
	pred := ex.db.compilePred(conds, shift)
	w := planWorkers(r.rows.n)
	parts := ex.workBufs(w, r.rows.width)
	err := parallelChunks(r.rows.n, w, func(chunk, lo, hi int) error {
		tk := ticker{g: ex.gov, site: CkFilter, rowBytes: int64(r.rows.width) * cellBytes}
		if err := tk.flush(); err != nil {
			return err
		}
		local := &parts[chunk]
		for i := lo; i < hi; i++ {
			row := r.rows.row(i)
			keep, err := pred(row)
			if err != nil {
				return err
			}
			if keep {
				local.push(row, nil)
				err = tk.emit()
			} else {
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
	out := &relation{rows: r.rows} // every row passed
	if kept < r.rows.n {
		out.rows = flatten(r.rows.width, parts)
	}
	ex.opEnd(t0, OpStat{Kind: "filter", RowsIn: int64(r.rows.n), RowsOut: int64(out.rows.n), Workers: w})
	return out, nil
}

// materialize runs a deferred base-table scan with its pending
// filters on the vectorized path (zone-map pruning, selection vectors),
// detaching the relation from its base table.
func (ex *exec) materialize(r *relation) (*relation, error) {
	if r.base == nil {
		return r, nil
	}
	return ex.vecScan(r)
}

// project evaluates the SELECT list over the joined relation. A column
// item copies its cell; an item Bind marked dead (no downstream select
// can observe it) is not evaluated, its slot left NULL, which is
// indistinguishable to consumers of the live columns.
func (ex *exec) project(bc *boundCore, r *relation) (batch, error) {
	width := len(bc.cells)
	out := batch{width: width}
	t0 := ex.opStart()
	if n := r.rows.n; n > 0 {
		if bc.identity {
			// Pure column-preserving rename (e.g. the translator's
			// `SELECT A.r0 AS v_x FROM QT2 AS A` CTE hops): the output
			// is the input batch itself.
			if err := ex.gov.check(CkProject); err != nil {
				return batch{}, err
			}
			out = r.rows
			ex.opEnd(t0, OpStat{Kind: "project", Label: "identity", RowsIn: int64(n), RowsOut: int64(n), Workers: 1})
		} else {
			// Compile the expression items once; column copies stay nil.
			compiled := make([]compiledExpr, width)
			for i, c := range bc.cells {
				if c == exprItem {
					compiled[i] = ex.db.compileExpr(bc.core.Items[i].Expr, bc.shift())
				}
			}
			// One n×width slab, each worker writing its range of rows in
			// place, so the parallel fan-out is deterministic by
			// construction.
			out = batch{width: width, n: n, cells: make([]Cell, n*width)}
			w := planWorkers(n)
			err := parallelChunks(n, w, func(chunk, lo, hi int) error {
				tk := ticker{g: ex.gov, site: CkProject, rowBytes: int64(width) * cellBytes}
				if err := tk.flush(); err != nil {
					return err
				}
				for ri := lo; ri < hi; ri++ {
					if err := tk.emit(); err != nil {
						return err
					}
					row := r.rows.row(ri)
					outRow := out.row(ri)
					for i, c := range bc.cells {
						switch {
						case c >= 0:
							outRow[i] = row[c]
						case c == deadItem:
							outRow[i] = NullCell
						default:
							v, err := compiled[i](row)
							if err != nil {
								return err
							}
							outRow[i] = v.cell() // Bind admits id-valued items only
						}
					}
				}
				return tk.flush()
			})
			if err != nil {
				return batch{}, err
			}
			ex.opEnd(t0, OpStat{Kind: "project", RowsIn: int64(n), RowsOut: int64(n), Workers: w})
		}
	}
	if bc.core.Distinct {
		return ex.dedup(out)
	}
	return out, nil
}
