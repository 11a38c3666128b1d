package rel

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Lateral unpivot. A TABLE(VALUES (T.pred0, T.val0), …) AS L(pred, val)
// item flips the k (pred_i, val_i) pairs of one wide DPH/RPH row into
// up to k narrow rows (the paper's Fig. 13). When the item correlates
// to a pure scan of a base table the flip is fused with the
// read of that table: the relation keeps the table's narrow columns in
// src and carries the lateral's columns after them, and every operator
// that turns row ids into rows — the vectorized scan, the index scan
// and the index nested-loop join — hands each surviving row id to
// expand, which walks the cell columns through the chunk presence
// bitmaps and appends one row per pair that passes to a rowBuf. The
// wide row is never built: a pair whose required cell is absent costs
// a pointer test (nil chunk) or a bit test.

// unpivot is a lateral item resolved against the base table it reads.
type unpivot struct {
	lat   *boundLateral
	width int // lateral columns per pair
	// cells[p*width+c] is the table column behind cell c of VALUES row
	// p, or -1 for a literal (lat.rows[p][c] is then a *Lit).
	cells []int
}

// newUnpivot resolves lf's cells against t, failing on a cell that
// names a column t does not have.
func newUnpivot(t *Table, lf *boundFrom) (*unpivot, error) {
	width := len(lf.lat.names)
	u := &unpivot{lat: lf.lat, width: width, cells: make([]int, len(lf.lat.rows)*width)}
	for p, row := range lf.lat.rows {
		for c, cell := range row {
			pos := -1
			if cr, ok := cell.(*ColRef); ok {
				if pos, ok = t.colIdx[cr.column]; !ok {
					return nil, fmt.Errorf("sql: unknown column %s (have %v)", colRefString(cr), t.names)
				}
			}
			u.cells[p*width+c] = pos
		}
	}
	return u, nil
}

// unpivotRun is one operator's use of an unpivot: the cell vectors, the
// conjuncts that mention lateral columns, and which lateral columns
// those conjuncts (and the operator's join links) need non-NULL. The
// operator's morsel workers share it; they only read it, apart from
// adding up visited as they finish.
type unpivotRun struct {
	u    *unpivot
	src  []int     // the relation's table columns
	nsrc int       // len(src): width of the table part of a row
	vecs []*colVec // per cell, like unpivot.cells; nil = literal
	lits []Cell    // per cell
	all  []int32   // every pair, in VALUES order
	// notNull[c]: a row whose lateral column c is NULL cannot pass, so
	// a pair with that cell absent is skipped before any value is read.
	notNull []bool
	post    func(Row) (bool, error) // nil when nothing is left to check
	profile bool                    // the execution is profiled
	visited atomic.Int64            // base rows expanded, summed as workers finish
}

// startUnpivot splits conds, the conjuncts an operator is about to
// apply to scan relation r, into those over the table's columns alone
// (returned; they run on the narrow row before any pair is looked at)
// and those that mention a lateral column (compiled into the run). The
// run is nil when r carries no unpivot.
func (ex *exec) startUnpivot(r *relation, conds []Expr) ([]Expr, *unpivotRun) {
	u := r.unpivot
	if u == nil {
		return conds, nil
	}
	t := r.base
	nsrc := len(r.src)
	run := &unpivotRun{u: u, src: r.src, nsrc: nsrc, notNull: make([]bool, u.width), profile: ex.prof != nil,
		vecs: make([]*colVec, len(u.cells)), lits: make([]Cell, len(u.cells)), all: make([]int32, len(u.lat.rows))}
	for p := range run.all {
		run.all[p] = int32(p)
	}
	t.mu.RLock()
	for i, pos := range u.cells {
		if pos >= 0 {
			run.vecs[i] = t.cols[pos]
		} else {
			run.lits[i] = u.lat.rows[i/u.width][i%u.width].(*Lit).V.cell()
		}
	}
	t.mu.RUnlock()
	var pre, post []Expr
	for _, cond := range conds {
		lateral := false
		eachColRef(cond, func(cr *ColRef) { lateral = lateral || cr.pos >= nsrc })
		if !lateral {
			pre = append(pre, cond)
			continue
		}
		if c := run.rejectsNull(cond); c >= 0 {
			run.notNull[c] = true
			if _, isNotNull := cond.(*IsNullExpr); isNotNull {
				continue // skipping absent cells is the whole test
			}
		}
		post = append(post, cond)
	}
	if len(post) > 0 {
		run.post = ex.db.compilePred(post, 0)
	}
	return pre, run
}

// rejectsNull recognizes `L.c IS NOT NULL` and `L.c = x` / `x = L.c`,
// conjuncts no row with a NULL in lateral column c passes, and returns
// c (-1 for any other shape).
func (run *unpivotRun) rejectsNull(cond Expr) int {
	var operands []Expr
	switch x := cond.(type) {
	case *IsNullExpr:
		if x.Not {
			operands = []Expr{x.X}
		}
	case *BinOp:
		if x.Op == "=" {
			operands = []Expr{x.L, x.R}
		}
	}
	for _, o := range operands {
		if cr, ok := o.(*ColRef); ok && cr.pos >= run.nsrc {
			return cr.pos - run.nsrc
		}
	}
	return -1
}

// splitLinks marks the lateral columns of the join links as non-NULL
// (NULL joins nothing) and returns the links split into those the
// narrow table row settles and those that need a pair's values.
// indexedIsRight says which side of each link is the unpivot relation.
func (run *unpivotRun) splitLinks(links []eqLink, indexedIsRight bool) (pre, post []eqLink) {
	for _, lk := range links {
		pos := lk.li
		if indexedIsRight {
			pos = lk.ri
		}
		if pos < run.nsrc {
			pre = append(pre, lk)
			continue
		}
		run.notNull[pos-run.nsrc] = true
		post = append(post, lk)
	}
	return pre, post
}

// cellsOf returns the vectors behind pair p's cells.
func (run *unpivotRun) cellsOf(p int32) []*colVec {
	return run.vecs[int(p)*run.u.width:][:run.u.width]
}

// livePairs returns the pairs that can produce a row in chunk ci: those
// whose required cells all have a chunk there. A predicate column no
// entity of the chunk uses is a nil chunk, so this is where most of the
// k pairs of a sparse table drop out, once per 1024 rows.
func (run *unpivotRun) livePairs(ci int, buf []int32) []int32 {
	buf = buf[:0]
pairs:
	for _, p := range run.all {
		for c, v := range run.cellsOf(p) {
			if v != nil && run.notNull[c] && v.chunkOf(ci) == nil {
				continue pairs
			}
		}
		buf = append(buf, p)
	}
	return buf
}

// opStat turns the profile entry of the access path the unpivot ran
// under into the unpivot's own: one operator line per fused read. A
// nil run leaves the entry as it is, and so does an unprofiled one,
// whose entry nobody reads.
func (run *unpivotRun) opStat(st OpStat) OpStat {
	if run == nil || !run.profile {
		return st
	}
	st.Label = st.Kind + " " + st.Label
	st.Kind = "unpivot"
	st.RowsIn = run.visited.Load()
	st.Pairs = len(run.all)
	named := slices.Clone(run.src)
	for _, pos := range run.u.cells {
		if pos >= 0 && !slices.Contains(named, pos) {
			named = append(named, pos)
		}
	}
	st.ColsRead = len(named)
	return st
}

// unpivotWorker is one goroutine's state for a run: the scratch row
// candidates are assembled in, and the ticker (at CkUnpivot) and rowBuf
// of the operator worker it runs under. swap is the join's (joinSpec).
type unpivotWorker struct {
	run     *unpivotRun
	cand    Row
	tk      *ticker
	out     *rowBuf
	swap    bool
	visited int64 // base rows expanded
}

// worker returns a worker for the run; nil for a nil run.
func (run *unpivotRun) worker(tk *ticker, out *rowBuf, swap bool) *unpivotWorker {
	if run == nil {
		return nil
	}
	return &unpivotWorker{run: run, cand: make(Row, run.nsrc+len(run.notNull)), tk: tk, out: out, swap: swap}
}

// finish reports the worker's work to the run.
func (w *unpivotWorker) finish() {
	if w != nil {
		w.run.visited.Add(w.visited)
	}
}

// expand emits the rows of base row id, whose table columns are in
// base: one per pair of pairs (in order) whose required cells are
// present and that passes the post links and conjuncts. With a probe
// row the emitted row is the probe row and the unpivoted row combined
// in FROM order; links are verified between the two, sided as
// indexedIsRight says. It charges one step for the base row and one emit per row.
func (w *unpivotWorker) expand(id int, base Row, pairs []int32, probe Row, links []eqLink, indexedIsRight bool) error {
	run := w.run
	w.visited++
	if err := w.tk.step(); err != nil {
		return err
	}
	copy(w.cand, base)
	tail := w.cand[run.nsrc:]
	ci, off := id>>chunkShift, id&chunkMask
	word, bit := uint(off)>>6, uint64(1)<<(uint(off)&63)
pairs:
	for _, p := range pairs {
		for c, v := range run.cellsOf(p) {
			if v == nil {
				if tail[c] = run.lits[int(p)*run.u.width+c]; tail[c].IsNull() && run.notNull[c] {
					continue pairs
				}
				continue
			}
			ck := v.chunkOf(ci)
			if ck == nil || ck.bits[word]&bit == 0 {
				if run.notNull[c] {
					continue pairs
				}
				tail[c] = NullCell
				continue
			}
			tail[c] = Cell{I: ck.intAt(ck.rank(off))}
		}
		l, r := probe, w.cand
		if !indexedIsRight {
			l, r = w.cand, probe
		}
		if !linkKeyEqual(l, r, links) {
			continue pairs
		}
		if run.post != nil {
			ok, err := run.post(w.cand)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if w.swap {
			l, r = r, l
		}
		w.out.push(l, r)
		if err := w.tk.emit(); err != nil {
			return err
		}
	}
	return nil
}
