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
	Rows    []Row
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
			rs, err = nil, recoveredError(p)
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
		rs, err := ex.evalSelect(cte.sel, env)
		if err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", q.CTEs[i].Name, err)
		}
		if prof != nil {
			prof.stats.CTERows[cte.name] = int64(len(rs.Rows))
		}
		env[cte.name] = resultToRelation(rs)
	}
	if prof != nil {
		prof.scope = ""
	}
	return ex.evalSelect(b.body, env)
}

// resultToRelation wraps a result set (whose column names project
// already lower-cased) as an unqualified relation.
func resultToRelation(rs *ResultSet) *relation {
	cols := make([]relCol, len(rs.Columns))
	for i, c := range rs.Columns {
		cols[i].name = c
	}
	return &relation{cols: cols, rows: rs.Rows}
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
// BY and LIMIT/OFFSET over the combined rows.
func (ex *exec) evalSelect(bs *boundSelect, env map[string]*relation) (*ResultSet, error) {
	s := bs.sel
	var out *ResultSet
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
	for _, core := range bs.cores {
		rs, err := ex.evalCore(core, env, rowCap)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = rs
			continue
		}
		if len(rs.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("sql: UNION arms have %d vs %d columns", len(out.Columns), len(rs.Columns))
		}
		out.Rows = append(out.Rows, rs.Rows...)
	}
	if len(s.OrderBy) > 0 {
		if err := ex.applyOrderBy(out, s.OrderBy); err != nil {
			return nil, err
		}
	}
	if s.Offset > 0 || s.Limit >= 0 {
		before := len(out.Rows)
		if s.Offset > 0 {
			if s.Offset >= int64(len(out.Rows)) {
				out.Rows = nil
			} else {
				out.Rows = out.Rows[s.Offset:]
			}
		}
		if s.Limit >= 0 && int64(len(out.Rows)) > s.Limit {
			out.Rows = out.Rows[:s.Limit]
		}
		if ex.prof != nil {
			ex.opEnd(time.Now(), OpStat{Kind: "limit", RowsIn: int64(before), RowsOut: int64(len(out.Rows)), Workers: 1})
		}
	}
	return out, nil
}

// dedup is dedupRows recorded as a "dedup" operator when profiling.
func (ex *exec) dedup(rows []Row) ([]Row, error) {
	t0 := ex.opStart()
	out, err := dedupRows(rows, ex.gov)
	if err != nil {
		return nil, err
	}
	ex.opEnd(t0, OpStat{Kind: "dedup", RowsIn: int64(len(rows)), RowsOut: int64(len(out)), Workers: 1})
	return out, nil
}

func (ex *exec) applyOrderBy(rs *ResultSet, items []OrderItem) error {
	t0 := ex.opStart()
	rel := resultToRelation(rs)
	type keyed struct {
		row  Row
		keys []Value
	}
	ks := make([]keyed, len(rs.Rows))
	slab := make([]Value, len(rs.Rows)*len(items))
	keyOf := make([]compiledExpr, len(items))
	for j, it := range items {
		keyOf[j] = ex.db.compileExpr(it.Expr, rel)
	}
	t := ticker{g: ex.gov, site: CkOrderBy}
	if err := t.flush(); err != nil {
		return err
	}
	for i, row := range rs.Rows {
		if err := t.step(); err != nil {
			return err
		}
		keys := slab[i*len(items) : (i+1)*len(items) : (i+1)*len(items)]
		for j, key := range keyOf {
			v, err := key(row)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		ks[i] = keyed{row: row, keys: keys}
	}
	// The comparison sort itself is not interruptible; the checkpoint
	// above bounds the uncancellable stretch to O(n log n) compares over
	// rows that already fit in (and were charged against) the budget.
	if err := t.flush(); err != nil {
		return err
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, it := range items {
			ka, kb := ks[a].keys[j], ks[b].keys[j]
			// NULLs sort last (first under DESC).
			if ka.IsNull() || kb.IsNull() {
				if ka.IsNull() && kb.IsNull() {
					continue
				}
				less := kb.IsNull()
				if it.Desc {
					less = !less
				}
				return less
			}
			c, _ := Compare(ka, kb)
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
	for i := range ks {
		rs.Rows[i] = ks[i].row
	}
	ex.opEnd(t0, OpStat{Kind: "order-by", RowsIn: int64(len(rs.Rows)), RowsOut: int64(len(rs.Rows)), Workers: 1})
	return nil
}

// dedupRows removes duplicate rows, keeping first occurrences in order.
// Rows are bucketed by a hash of their ids and candidates are verified
// id by id.
func dedupRows(rows []Row, g *govern) ([]Row, error) {
	if len(rows) < 2 {
		return rows, nil
	}
	t := ticker{g: g, site: CkDedup}
	if err := t.flush(); err != nil {
		return nil, err
	}
	seen := make(map[uint64][]int32, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		if err := t.step(); err != nil {
			return nil, err
		}
		h := rowKeyHash(r)
		dup := false
		for _, j := range seen[h] {
			if slices.Equal(out[j], r) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], int32(len(out)))
			out = append(out, r)
		}
	}
	return out, nil
}

// evalCore evaluates one SELECT core. rowCap >= 0 bounds the number of
// projected rows (LIMIT pushdown); the caller guarantees projection
// order is final (no ORDER BY, no DISTINCT), so only the first rowCap
// joined rows can appear in the result.
func (ex *exec) evalCore(bc *boundCore, env map[string]*relation, rowCap int64) (*ResultSet, error) {
	if err := ex.gov.check(CkCore); err != nil {
		return nil, err
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
			return nil, err
		}
		units = append(units, u)
	}

	cur, err := ex.joinUnits(units, conjs, applied)
	if err != nil {
		return nil, err
	}
	cur, err = ex.materialize(cur)
	if err != nil {
		return nil, err
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
			return nil, err
		}
	}

	if rowCap >= 0 && int64(len(cur.rows)) > rowCap {
		if ex.prof != nil {
			ex.opEnd(time.Now(), OpStat{Kind: "limit", Label: "pushdown", RowsIn: int64(len(cur.rows)), RowsOut: rowCap, Workers: 1})
		}
		trimmed := *cur
		trimmed.rows = cur.rows[:rowCap]
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
	arena := rowArena{gov: ex.gov}
	tk := ticker{g: ex.gov, site: CkFilter}
	if run != nil {
		tk.site = CkUnpivot
	}
	if err := tk.flush(); err != nil {
		return nil, err
	}
	out := &relation{cols: r.cols, aliases: r.aliases}
	uw := run.worker(ex.gov)
	for _, id := range ids {
		row := rd.rowAt(int(id))
		ok, err := pred(row)
		if err != nil {
			return nil, err
		}
		switch {
		case !ok:
			err = tk.step()
		case run != nil:
			err = uw.expand(int(id), row, run.all, nil, nil, false)
		default:
			out.rows = append(out.rows, arena.clone(row))
			err = tk.emit()
		}
		if err != nil {
			return nil, err
		}
	}
	if err := tk.flush(); err != nil {
		return nil, err
	}
	if run != nil {
		var err error
		if out.rows, err = uw.finish(); err != nil {
			return nil, err
		}
	}
	ex.opEnd(t0, run.opStat(OpStat{Kind: "index-scan", Label: t.Name + "." + indexCol, RowsIn: int64(len(ids)), RowsOut: int64(len(out.rows)),
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
	w := planWorkers(len(r.rows))
	parts := make([][]Row, w)
	err := parallelChunks(len(r.rows), w, func(chunk, lo, hi int) error {
		tk := ticker{g: ex.gov, site: CkFilter}
		if err := tk.flush(); err != nil {
			return err
		}
		var local []Row
		for _, row := range r.rows[lo:hi] {
			keep, err := pred(row)
			if err != nil {
				return err
			}
			if keep {
				local = append(local, row)
				err = tk.emit()
			} else {
				err = tk.step()
			}
			if err != nil {
				return err
			}
		}
		parts[chunk] = local
		return tk.flush()
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		out.rows = append(out.rows, p...)
	}
	ex.opEnd(t0, OpStat{Kind: "filter", RowsIn: int64(len(r.rows)), RowsOut: int64(len(out.rows)), Workers: w})
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
func (ex *exec) project(bc *boundCore, r *relation) (*ResultSet, error) {
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
	rs := &ResultSet{Columns: names}
	t0 := ex.opStart()
	if n := len(r.rows); n > 0 {
		// Compile the non-trivial projection expressions once; direct
		// column copies stay nil.
		compiled := make([]compiledExpr, len(names))
		identity := len(names) == len(r.cols)
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
			// `SELECT A.r0 AS v_x FROM QT2 AS A` CTE hops): reuse the
			// input rows, copying only the row-pointer slice so later
			// in-place reordering (ORDER BY) cannot alias table storage.
			if err := ex.gov.check(CkProject); err != nil {
				return nil, err
			}
			rs.Rows = append([]Row(nil), r.rows...)
			ex.opEnd(t0, OpStat{Kind: "project", Label: "identity", RowsIn: int64(n), RowsOut: int64(len(rs.Rows)), Workers: 1})
		} else {
			// One output row per input row, written in place by index, so
			// the parallel fan-out is deterministic by construction.
			rows := make([]Row, n)
			w := planWorkers(n)
			width := len(names)
			err := parallelChunks(n, w, func(chunk, lo, hi int) error {
				tk := ticker{g: ex.gov, site: CkProject}
				if err := tk.flush(); err != nil {
					return err
				}
				arena := rowArena{gov: ex.gov}
				for ri := lo; ri < hi; ri++ {
					if err := tk.emit(); err != nil {
						return err
					}
					row := r.rows[ri]
					outRow := arena.alloc(width)
					for i := range names {
						if compiled[i] == nil {
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
					rows[ri] = outRow
				}
				return tk.flush()
			})
			if err != nil {
				return nil, err
			}
			rs.Rows = rows
			ex.opEnd(t0, OpStat{Kind: "project", RowsIn: int64(n), RowsOut: int64(len(rs.Rows)), Workers: w})
		}
	}
	if core.Distinct {
		var err error
		if rs.Rows, err = ex.dedup(rs.Rows); err != nil {
			return nil, err
		}
	}
	return rs, nil
}
