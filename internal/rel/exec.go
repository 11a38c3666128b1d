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
	env := make(map[string]*relation, len(b.ctes))
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
		env[cte.name] = resultToRelation(cte.sel.cores[0].names, rows)
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

// resultToRelation wraps a select's rows, under the column names
// project already lower-cased, as an unqualified relation.
func resultToRelation(names []string, rows batch) *relation {
	cols := make([]relCol, len(names))
	for i, c := range names {
		cols[i].name = c
	}
	return &relation{cols: cols, rows: rows}
}

// aliased returns a copy of base with columns qualified by alias.
func aliased(base *relation, alias string) *relation {
	cols := make([]relCol, len(base.cols))
	for i, c := range base.cols {
		cols[i] = relCol{alias: alias, name: c.name}
	}
	return &relation{cols: cols, rows: base.rows, aliases: []string{alias}}
}

// evalSelect evaluates one select: its cores, UNION ALL-ed, then ORDER
// BY and LIMIT/OFFSET over the combined rows. Its columns are the first
// core's names.
func (ex *exec) evalSelect(bs *boundSelect, env map[string]*relation) (batch, error) {
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
	names := bs.cores[0].names
	var out batch
	for i, core := range bs.cores {
		if len(core.names) != len(names) {
			return batch{}, fmt.Errorf("sql: UNION arms have %d vs %d columns", len(names), len(core.names))
		}
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
		if out, err = ex.applyOrderBy(names, out, s.OrderBy); err != nil {
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

// applyOrderBy returns rows, whose columns are names, sorted stably on
// items: keys are computed once per row, an index permutation is
// sorted, and the rows are copied out in its order.
func (ex *exec) applyOrderBy(names []string, rows batch, items []OrderItem) (batch, error) {
	t0 := ex.opStart()
	rel := resultToRelation(names, rows)
	nk := len(items)
	perm := make([]int32, rows.n)
	keys := make([]Value, rows.n*nk)
	keyOf := make([]compiledExpr, nk)
	for j, it := range items {
		keyOf[j] = ex.db.compileExpr(it.Expr, rel)
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
func (ex *exec) evalCore(bc *boundCore, env map[string]*relation, rowCap int64) (batch, error) {
	if err := ex.gov.check(CkCore); err != nil {
		return batch{}, err
	}
	conjs := bc.conjs
	applied := make([]bool, len(conjs))

	// Build each FROM unit, pushing single-alias filters into pure base scans.
	units := make([]*relation, 0, len(bc.from))
	for _, bf := range bc.from {
		if bf.lat != nil {
			continue // fused into the scan of the base table right before it
		}
		u, err := ex.buildUnit(bc, bf, applied, env)
		if err != nil {
			return batch{}, err
		}
		units = append(units, u)
	}

	cur, err := ex.joinUnits(units, conjs, applied)
	if err != nil {
		return batch{}, err
	}
	cur, err = ex.materialize(cur)
	if err != nil {
		return batch{}, err
	}

	// Any unapplied conjunct must now be fully bound.
	var residual []Expr
	for i := range conjs {
		if !applied[i] {
			residual = append(residual, conjs[i].expr)
			applied[i] = true
		}
	}
	if len(residual) > 0 {
		cur, err = ex.filterRelation(cur, residual)
		if err != nil {
			return batch{}, err
		}
	}

	if rowCap >= 0 && int64(cur.rows.n) > rowCap {
		if ex.prof != nil {
			ex.opEnd(time.Now(), OpStat{Kind: "limit", Label: "pushdown", RowsIn: int64(cur.rows.n), RowsOut: rowCap, Workers: 1})
		}
		trimmed := *cur
		trimmed.rows = cur.rows.slice(0, int(rowCap))
		cur = &trimmed
	}
	return ex.project(bc, cur)
}

// buildUnit materializes one FROM item including its LEFT OUTER JOIN
// chain.
func (ex *exec) buildUnit(bc *boundCore, bf *boundFrom, applied []bool, env map[string]*relation) (*relation, error) {
	left, err := ex.buildPrimary(bc, bf, applied, env, len(bf.joins) == 0)
	if err != nil {
		return nil, err
	}
	for i := range bf.joins {
		jc := &bf.joins[i]
		right, err := ex.buildPrimary(bc, jc.right, nil, env, false)
		if err != nil {
			return nil, err
		}
		left, err = ex.join(left, right, onSpec(left, right, jc))
		if err != nil {
			return nil, err
		}
	}
	return left, nil
}

// buildPrimary resolves a table or CTE name. When push is true, the
// single-alias conjuncts of the core's WHERE are pushed into the item —
// index-accelerated on a base table — and marked applied. A base table
// is shaped from the columns the core references through the item's
// alias, nothing else.
func (ex *exec) buildPrimary(bc *boundCore, bf *boundFrom, applied []bool, env map[string]*relation, push bool) (*relation, error) {
	if cte, ok := env[bf.table]; ok {
		r := aliased(cte, bf.alias)
		if push {
			return ex.pushBound(r, bc.conjs, applied)
		}
		return r, nil
	}
	t := ex.db.table(bf.table)
	if t == nil {
		return nil, fmt.Errorf("sql: unknown table %q", bf.table)
	}
	// A lateral item is fused with the read of the base table it
	// correlates to (unpivot.go): its cells are read from the chunks per
	// pair and stay out of the rows.
	var up *unpivot
	if bf.lateral != nil {
		var err error
		if up, err = newUnpivot(t, bf.lateral); err != nil {
			return nil, err
		}
	}
	r := &relation{base: t, src: t.columnSet(bf), aliases: []string{bf.alias}, scan: true, unpivot: up}
	r.cols = make([]relCol, len(r.src))
	for i, c := range r.src {
		r.cols[i] = relCol{alias: bf.alias, name: t.names[c]}
	}
	if up != nil {
		for _, name := range up.lat.names {
			r.cols = append(r.cols, relCol{alias: up.alias, name: name})
		}
		r.aliases = append(r.aliases, up.alias)
	}
	if push {
		return ex.scanWithFilters(r, bc, bf, applied)
	}
	return r, nil
}

// columnSet resolves the columns bf references to table positions, in
// schema order. Names the table does not have are left out; the
// reference then fails to resolve, as it would against the full width.
func (t *Table) columnSet(bf *boundFrom) []int {
	src := make([]int, 0, len(bf.cols))
	for _, name := range bf.cols {
		if c, ok := t.colIdx[name]; ok {
			src = append(src, c)
		}
	}
	sort.Ints(src)
	return src
}

// scanWithFilters scans the base table behind r applying the core's
// conjuncts over bf's alias alone — and, when a lateral item is fused
// into r, over its alias too — using a hash index for the first
// "col = constant" conjunct on the table if any.
func (ex *exec) scanWithFilters(r *relation, bc *boundCore, bf *boundFrom, applied []bool) (*relation, error) {
	t := r.base
	var mine []*boundConj
	for i := range bc.conjs {
		c := &bc.conjs[i]
		// r's aliases are bf's and, when a lateral item is fused into
		// it, that item's.
		if !applied[i] && len(c.aliases) > 0 && boundIn(c, r) {
			mine = append(mine, c)
			applied[i] = true
		}
	}
	// Look for an index-usable equality: an indexed column equal to an
	// int literal (Bind records it). A conjunct with any other constant
	// stays with the rest, whose compiled predicate decides it as it
	// would without an index.
	indexCol, indexID := "", int64(0)
	indexConj := -1
	for k, c := range mine {
		if c.col == nil || !t.HasIndex(c.col.Column) {
			continue
		}
		if c.col.alias != bf.alias {
			continue // a lateral column that shares an indexed column's name
		}
		indexCol, indexID, indexConj = c.col.Column, c.id, k
		break
	}
	var rest []Expr
	for k, c := range mine {
		if k != indexConj {
			rest = append(rest, c.expr)
		}
	}
	if indexConj < 0 {
		// Defer the filters: a later index nested-loop join can apply
		// them per probed row, avoiding a filtered copy of the table,
		// and otherwise the scan runs them chunk-wise.
		r.pending = rest
		return r, nil
	}
	t0 := ex.opStart()
	pre, run := ex.startUnpivot(r, rest)
	pred := ex.db.compilePred(pre, r)
	ids, _ := t.IndexLookup(indexCol, indexID)
	rd := t.reader(r.src)
	tk := ticker{g: ex.gov, site: CkFilter, rowBytes: int64(len(r.cols)) * cellBytes}
	if run != nil {
		tk.site = CkUnpivot
	}
	if err := tk.flush(); err != nil {
		return nil, err
	}
	kept := ex.workBufs(1, len(r.cols))
	uw := run.worker(&tk, &kept[0])
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
	out := &relation{cols: r.cols, aliases: r.aliases, rows: flatten(len(r.cols), kept)}
	ex.opEnd(t0, run.opStat(OpStat{Kind: "index-scan", Label: t.Name + "." + indexCol, RowsIn: int64(len(ids)), RowsOut: int64(out.rows.n),
		ColsRead: len(r.src), ColsTotal: len(t.Schema), Workers: 1}))
	return out, nil
}

// pushBound applies every unapplied conjunct whose aliases are all part
// of r, a CTE reference.
func (ex *exec) pushBound(r *relation, conjs []boundConj, applied []bool) (*relation, error) {
	var mine []Expr
	for i := range conjs {
		if !applied[i] && len(conjs[i].aliases) > 0 && boundIn(&conjs[i], r) {
			mine = append(mine, conjs[i].expr)
			applied[i] = true
		}
	}
	if len(mine) == 0 {
		return r, nil
	}
	return ex.filterRelation(r, mine)
}

func (ex *exec) filterRelation(r *relation, conds []Expr) (*relation, error) {
	if r.scan {
		// Fold the conjuncts into the scan's pending set and run the
		// scan once instead of materializing first.
		s := *r
		s.pending = append(append([]Expr(nil), r.pending...), conds...)
		return ex.materialize(&s)
	}
	t0 := ex.opStart()
	out := &relation{cols: r.cols, aliases: r.aliases}
	pred := ex.db.compilePred(conds, r)
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
	out.rows = r.rows // every row passed
	if kept < r.rows.n {
		out.rows = flatten(r.rows.width, parts)
	}
	ex.opEnd(t0, OpStat{Kind: "filter", RowsIn: int64(r.rows.n), RowsOut: int64(out.rows.n), Workers: w})
	return out, nil
}

// boundIn reports whether every alias c references is part of r.
func boundIn(c *boundConj, r *relation) bool {
	for _, a := range c.aliases {
		if !slices.Contains(r.aliases, a) {
			return false
		}
	}
	return true
}

// materialize runs a deferred base-table scan with its pending
// filters on the vectorized path (zone-map pruning, selection vectors),
// detaching the relation from its base table.
func (ex *exec) materialize(r *relation) (*relation, error) {
	if !r.scan {
		return r, nil
	}
	return ex.vecScan(r)
}

// project evaluates the SELECT list over the joined relation. Items
// the bound form marks dead (no downstream select can observe them) are
// not evaluated when they are expressions: their slot is left NULL,
// which is indistinguishable to consumers of the live columns.
func (ex *exec) project(bc *boundCore, r *relation) (batch, error) {
	core := bc.core
	names := bc.names
	// A nil entry of exprs is a direct column copy from positions[i].
	exprs := make([]Expr, len(names))
	positions := make([]int, len(names))
	for i, item := range core.Items {
		exprs[i], positions[i] = item.Expr, -1
		if cr, ok := item.Expr.(*ColRef); ok {
			if p := r.colIndex(cr); p >= 0 {
				exprs[i], positions[i] = nil, p
			}
		}
	}
	if bc.dead != nil {
		// Dead-column pruning (see deadcols.go). Only expression items
		// are worth skipping: a direct copy moves one cell.
		// positions[i] = -2 marks a dead slot: never read from the input
		// row, left NULL in the output.
		for i := range names {
			if exprs[i] != nil && bc.dead[i] {
				exprs[i] = nil
				positions[i] = -2
			}
		}
	}
	width := len(names)
	out := batch{width: width}
	t0 := ex.opStart()
	if n := r.rows.n; n > 0 {
		// Compile the non-trivial projection expressions once; direct
		// column copies stay nil.
		compiled := make([]compiledExpr, width)
		identity := width == len(r.cols)
		for i := range names {
			if exprs[i] != nil {
				compiled[i] = ex.db.compileExpr(exprs[i], r)
				identity = false
			} else if positions[i] != i {
				identity = false
			}
		}
		if identity {
			// Pure column-preserving rename (e.g. the translator's
			// `SELECT A.r0 AS v_x FROM QT2 AS A` CTE hops): the output
			// is the input batch itself.
			if err := ex.gov.check(CkProject); err != nil {
				return batch{}, err
			}
			out = r.rows
			ex.opEnd(t0, OpStat{Kind: "project", Label: "identity", RowsIn: int64(n), RowsOut: int64(n), Workers: 1})
		} else {
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
					for i := range names {
						if compiled[i] == nil {
							outRow[i] = NullCell
							if p := positions[i]; p >= 0 {
								outRow[i] = row[p]
							}
							continue
						}
						v, err := compiled[i](row)
						if err != nil {
							return err
						}
						outRow[i] = v.cell() // Bind admits id-valued items only
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
	if core.Distinct {
		return ex.dedup(out)
	}
	return out, nil
}
