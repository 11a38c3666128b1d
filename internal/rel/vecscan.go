package rel

import "math/bits"

// Vectorized scan over a columnar base table. Instead of materializing
// every row and filtering row-at-a-time, the scan works one chunk
// (1024 rows) at a time per morsel worker:
//
//  1. zone-map check — per-chunk min/max and presence counts can
//     prove no row of the chunk satisfies a conjunct, skipping the
//     chunk before any per-row work;
//  2. selection vector — the vectorizable conjuncts (`col <cmp> int
//     literal` and `col IS [NOT] NULL`, on any column) are evaluated
//     directly against the packed vectors, producing the in-chunk
//     offsets of surviving rows;
//  3. residual predicates — conjuncts the vectorizer cannot express
//     (non-int literals, functions, multi-column arithmetic) run the
//     ordinary compiled-closure path over a scratch-materialized row,
//     but only for rows that survived step 2;
//  4. gather — survivors are materialized into arena rows.
//
// Rows — scratch and gathered alike — carry only the relation's
// columns (relation.src), read through the table's narrow reader.
//
// Governance (see govern.go): selected rows are emitted — charged
// against the row budget — exactly like the row-at-a-time filter;
// evaluated-but-rejected rows tick the checkpoint counter without
// charging, and a zone-skipped chunk counts as a single unit of work,
// so a scan that skips everything stays cancelable but a budget can
// never be tripped by rows the query never produced.

// vecOp is a vectorizable comparison.
type vecOp uint8

const (
	vecEq vecOp = iota
	vecNe
	vecLt
	vecLe
	vecGt
	vecGe
	vecIsNull
	vecNotNull
)

// vecFilter is one vectorizable conjunct: the column at relation
// position `col` compared against the int literal `val` (unused for
// the null tests).
type vecFilter struct {
	col int
	op  vecOp
	val int64
}

var cmpFlip = map[string]vecOp{"=": vecEq, "!=": vecNe, "<": vecGt, "<=": vecGe, ">": vecLt, ">=": vecLe}
var cmpFwd = map[string]vecOp{"=": vecEq, "!=": vecNe, "<": vecLt, "<=": vecLe, ">": vecGt, ">=": vecGe}

// compileVecFilters splits conds into vectorizable filters and the
// residual row-at-a-time predicates; r must be a scan relation. Every
// stored cell is an int64 or NULL (column.go), so `col <cmp> intLit`
// vectorizes on any column, and the zone map bounds every present cell.
func compileVecFilters(r *relation, conds []Expr) (vfs []vecFilter, residual []Expr) {
	for _, c := range conds {
		switch x := c.(type) {
		case *IsNullExpr:
			if cr, ok := x.X.(*ColRef); ok {
				if pos := r.colIndex(cr); pos >= 0 {
					op := vecIsNull
					if x.Not {
						op = vecNotNull
					}
					vfs = append(vfs, vecFilter{col: pos, op: op})
					continue
				}
			}
		case *BinOp:
			if op, ok := cmpFwd[x.Op]; ok {
				if vf, ok2 := vecCompare(r, x.L, x.R, op, cmpFlip[x.Op]); ok2 {
					vfs = append(vfs, vf)
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return vfs, residual
}

// vecCompare recognizes `col <cmp> intLit` with the column on either
// side.
func vecCompare(r *relation, l, rhs Expr, fwd, flip vecOp) (vecFilter, bool) {
	if cr, ok := l.(*ColRef); ok {
		if lit, ok2 := rhs.(*Lit); ok2 && lit.V.K == KindInt {
			if pos := r.colIndex(cr); pos >= 0 {
				return vecFilter{col: pos, op: fwd, val: lit.V.I}, true
			}
		}
	}
	if cr, ok := rhs.(*ColRef); ok {
		if lit, ok2 := l.(*Lit); ok2 && lit.V.K == KindInt {
			if pos := r.colIndex(cr); pos >= 0 {
				return vecFilter{col: pos, op: flip, val: lit.V.I}, true
			}
		}
	}
	return vecFilter{}, false
}

func cmpInt(op vecOp, v, lit int64) bool {
	switch op {
	case vecEq:
		return v == lit
	case vecNe:
		return v != lit
	case vecLt:
		return v < lit
	case vecLe:
		return v <= lit
	case vecGt:
		return v > lit
	default:
		return v >= lit
	}
}

// skipChunk consults the chunk's zone map: true means no row in the
// chunk can satisfy the filter. ck == nil is an all-NULL chunk; n is
// the number of table rows the chunk covers.
func (f vecFilter) skipChunk(ck *colChunk, n int) bool {
	switch f.op {
	case vecIsNull:
		return ck != nil && ck.n == n // no NULLs present
	case vecNotNull:
		return ck == nil || ck.n == 0
	default:
		if ck == nil || ck.n == 0 {
			return true // comparisons never match NULL
		}
		if !ck.zoneInit {
			return true
		}
		switch f.op {
		case vecEq:
			return f.val < ck.min || f.val > ck.max
		case vecNe:
			return ck.min == ck.max && ck.min == f.val
		case vecLt:
			return ck.min >= f.val
		case vecLe:
			return ck.min > f.val
		case vecGt:
			return ck.max <= f.val
		default: // vecGe
			return ck.max < f.val
		}
	}
}

// firstPass evaluates the filter over the whole chunk, appending the
// in-chunk offsets of matching rows to sel. For comparisons it walks
// the presence bitmap's set bits with a running packed cursor, so each
// value is read sequentially — no per-row rank.
func (f vecFilter) firstPass(ck *colChunk, n int, sel []int32) []int32 {
	switch f.op {
	case vecIsNull:
		if ck == nil {
			for off := 0; off < n; off++ {
				sel = append(sel, int32(off))
			}
			return sel
		}
		for off := 0; off < n; off++ {
			if !ck.has(off) {
				sel = append(sel, int32(off))
			}
		}
		return sel
	case vecNotNull:
		if ck == nil {
			return sel
		}
		for w := 0; w < chunkWords; w++ {
			word := ck.bits[w]
			for word != 0 {
				sel = append(sel, int32(w<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		return sel
	default:
		if ck == nil {
			return sel
		}
		if ck.packed != nil {
			return f.firstPassPacked(ck, sel)
		}
		k := 0
		for w := 0; w < chunkWords; w++ {
			word := ck.bits[w]
			for word != 0 {
				off := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if cmpInt(f.op, ck.ints[k], f.val) {
					sel = append(sel, int32(off))
				}
				k++
			}
		}
		return sel
	}
}

// packedRebase translates the filter's int literal into the chunk's
// frame-of-reference delta domain. When the literal lies outside the
// chunk's representable delta range the comparison degenerates to
// all-present-match or no-match; otherwise dl is the rebased literal
// and deltas compare against it with plain unsigned semantics (both
// sides are non-negative offsets from the same reference).
func (f vecFilter) packedRebase(ck *colChunk) (dl uint64, all, none bool) {
	w := uint(ck.packedW)
	if w == 0 { // every value equals the reference
		if cmpInt(f.op, ck.ref, f.val) {
			return 0, true, false
		}
		return 0, false, true
	}
	if f.val < ck.ref { // literal below every stored value
		switch f.op {
		case vecNe, vecGt, vecGe:
			return 0, true, false
		default: // vecEq, vecLt, vecLe
			return 0, false, true
		}
	}
	d := uint64(f.val) - uint64(ck.ref)
	if d >= uint64(1)<<w { // literal above every representable value
		switch f.op {
		case vecNe, vecLt, vecLe:
			return 0, true, false
		default: // vecEq, vecGt, vecGe
			return 0, false, true
		}
	}
	return d, false, false
}

func cmpU64(op vecOp, v, lit uint64) bool {
	switch op {
	case vecEq:
		return v == lit
	case vecNe:
		return v != lit
	case vecLt:
		return v < lit
	case vecLe:
		return v <= lit
	case vecGt:
		return v > lit
	default:
		return v >= lit
	}
}

// firstPassPacked is the comparison first pass over a sealed FoR
// bit-packed chunk: the literal is rebased into the delta domain once,
// the comparison op is lowered to a single unsigned range test (every
// vecOp is "delta in [lo,hi]" or its complement), and each packed
// field is tested in place — no value is ever decoded back to int64
// and no per-element op dispatch remains in the loop.
func (f vecFilter) firstPassPacked(ck *colChunk, sel []int32) []int32 {
	dl, all, none := f.packedRebase(ck)
	if none {
		return sel
	}
	if all {
		for w := 0; w < chunkWords; w++ {
			word := ck.bits[w]
			for word != 0 {
				sel = append(sel, int32(w<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		return sel
	}
	w := uint(ck.packedW)
	mask := uint64(1)<<w - 1
	lpw := packLanes(w)
	packed := ck.packed
	if ck.n == chunkRows {
		// Dense chunk: rank == offset, so the lanes stream word by
		// word with a constant lpw-trip inner loop — one load per
		// word, shift+mask per lane, no straddle handling.
		if f.op == vecEq {
			// Equality gets a word-at-a-time skip: XOR the word with
			// the literal replicated into every lane, then detect a
			// zero lane with the carry trick ((x-ones)&^x&highs is
			// nonzero iff some lane of x is zero — exact for
			// existence). A non-matching word retires in ~5 ops for
			// lpw lanes; only matching words rescan per lane.
			var pat, ones, highs uint64
			for j := uint(0); j < lpw; j++ {
				pat |= dl << (j * w)
				ones |= 1 << (j * w)
				highs |= 1 << (j*w + w - 1)
			}
			k := 0
			full := chunkRows / int(lpw) // words with all lpw lanes in use
			for wi := 0; wi < full; wi++ {
				x := packed[wi] ^ pat
				if (x-ones)&^x&highs == 0 {
					k += int(lpw)
					continue
				}
				word := packed[wi]
				for j := uint(0); j < lpw; j++ {
					if word&mask == dl {
						sel = append(sel, int32(k))
					}
					word >>= w
					k++
				}
			}
			if k < chunkRows {
				// Tail word: its unused upper lanes are zero and would
				// false-match the skip test, so scan it per lane.
				word := packed[full]
				for ; k < chunkRows; k++ {
					if word&mask == dl {
						sel = append(sel, int32(k))
					}
					word >>= w
				}
			}
			return sel
		}
		// Range ops get the same word-at-a-time skip when every lane
		// has a spare top bit (seal widens w by one whenever that is
		// free, and the zone map bounds the deltas soundly): with the
		// guard bit OR-ed into each lane of the replicated literal,
		// (pat - word) & guards keeps the guard exactly in lanes
		// where d <= lit, and no borrow crosses lanes because each
		// lane's minuend is at least its subtrahend. Every op except
		// Ne is "d <= b" or its complement for some threshold b.
		if ck.zoneInit && dl < uint64(1)<<(w-1) && uint64(ck.max-ck.ref) < uint64(1)<<(w-1) {
			spare := uint64(1) << (w - 1)
			var b uint64
			comp, swar := false, true
			switch f.op {
			case vecLt:
				if dl == 0 {
					return sel // no delta is below zero
				}
				b = dl - 1
			case vecLe:
				b = dl
			case vecGt:
				b, comp = dl, true
			case vecGe:
				if dl == 0 {
					b = spare - 1 // every lane matches: le(spare-1) is all-ones
				} else {
					b, comp = dl-1, true
				}
			default: // vecNe: needs two thresholds, not worth a skip
				swar = false
			}
			if swar {
				var pat, highs uint64
				for j := uint(0); j < lpw; j++ {
					pat |= (b | spare) << (j * w)
					highs |= spare << (j * w)
				}
				k := 0
				full := chunkRows / int(lpw)
				for wi := 0; wi < full; wi++ {
					m := (pat - packed[wi]) & highs
					if comp {
						m ^= highs
					}
					if m == 0 {
						k += int(lpw)
						continue
					}
					word := packed[wi]
					for j := uint(0); j < lpw; j++ {
						if cmpU64(f.op, word&mask, dl) {
							sel = append(sel, int32(k))
						}
						word >>= w
						k++
					}
				}
				if k < chunkRows {
					word := packed[full]
					for ; k < chunkRows; k++ {
						if cmpU64(f.op, word&mask, dl) {
							sel = append(sel, int32(k))
						}
						word >>= w
					}
				}
				return sel
			}
		}
		k := 0
		for wi := 0; k < chunkRows; wi++ {
			word := packed[wi]
			lanes := int(lpw)
			if rest := chunkRows - k; rest < lanes {
				lanes = rest
			}
			for j := 0; j < lanes; j++ {
				if cmpU64(f.op, word&mask, dl) {
					sel = append(sel, int32(k))
				}
				word >>= w
				k++
			}
		}
		return sel
	}
	// Sparse chunk: walk the presence bitmap for offsets while the
	// lane cursor advances sequentially through the packed words —
	// rank k is consumed in order, so no division is needed.
	cur := uint64(0)
	consumed := lpw // forces a load on the first lane
	pi := 0
	for wi := 0; wi < chunkWords; wi++ {
		word := ck.bits[wi]
		for word != 0 {
			off := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if consumed == lpw {
				cur = packed[pi]
				pi++
				consumed = 0
			}
			d := cur & mask
			cur >>= w
			consumed++
			if cmpU64(f.op, d, dl) {
				sel = append(sel, int32(off))
			}
		}
	}
	return sel
}

// refine keeps only the rows of sel that also satisfy the filter,
// compacting in place.
func (f vecFilter) refine(ck *colChunk, sel []int32) []int32 {
	kept := sel[:0]
	for _, off := range sel {
		present := ck != nil && ck.has(int(off))
		switch f.op {
		case vecIsNull:
			if !present {
				kept = append(kept, off)
			}
		case vecNotNull:
			if present {
				kept = append(kept, off)
			}
		default:
			if present && cmpInt(f.op, ck.intAt(ck.rank(int(off))), f.val) {
				kept = append(kept, off)
			}
		}
	}
	return kept
}

// vecScan materializes a base-table scan relation (r.scan), applying
// its pending conjuncts with the chunk pipeline described at the top of
// the file. Chunks are partitioned across morsel workers and the
// per-worker outputs concatenated in chunk order, so the result is
// row-for-row identical to a sequential scan in row-id order.
func (ex *exec) vecScan(r *relation) (*relation, error) {
	t0 := ex.opStart()
	t := r.base
	out := &relation{cols: r.cols, aliases: r.aliases}
	// Workers share the head reader's snapshot of the table (column
	// vectors, row count, tombstones) and each take their own scratch.
	head := t.reader(r.src)
	cols, nrows, tomb := head.cols, head.nrows, head.tomb
	// With a lateral item fused into r, every selected row is expanded
	// into its pairs (unpivot.go) instead of being gathered as it is.
	pending, run := ex.startUnpivot(r, r.pending)
	site := CkFilter
	if run != nil {
		site = CkUnpivot
	}
	vfs, residual := compileVecFilters(r, pending)
	var rowPred func(Row) (bool, error)
	if len(residual) > 0 {
		rowPred = ex.db.compilePred(residual, r)
	}
	nchunks := (nrows + chunkRows - 1) >> chunkShift
	w := planWorkers(nrows)
	if w > nchunks && nchunks > 0 {
		w = nchunks
	}
	width := len(cols)
	parts := make([][]Row, w)
	// Per-worker zone-skip counters, allocated only when profiling so
	// the disabled path stays allocation-free.
	var skips []int64
	if ex.prof != nil {
		skips = make([]int64, w)
	}
	err := parallelChunks(nchunks, w, func(chunk, clo, chi int) error {
		tk := ticker{g: ex.gov, site: site}
		if err := tk.flush(); err != nil {
			return err
		}
		var local []Row
		arena := rowArena{gov: ex.gov}
		uw := run.worker(ex.gov)
		var sel, live []int32
		rd := *head
	chunks:
		for ci := clo; ci < chi && !uw.full(); ci++ {
			base := ci << chunkShift
			n := nrows - base
			if n > chunkRows {
				n = chunkRows
			}
			var tc *tombChunk
			if ci < len(tomb) {
				tc = tomb[ci]
			}
			if tc != nil && tc.dead >= n {
				// Fully tombstoned chunk: skip it exactly like a
				// zone-pruned one — a single unit of work, no charge.
				if skips != nil {
					skips[chunk]++
				}
				if err := tk.step(); err != nil {
					return err
				}
				continue
			}
			for _, f := range vfs {
				if f.skipChunk(cols[f.col].chunkOf(ci), n) {
					// The whole chunk is pruned: one unit of work, no
					// budget charge — the query produced nothing here.
					if skips != nil {
						skips[chunk]++
					}
					if err := tk.step(); err != nil {
						return err
					}
					continue chunks
				}
			}
			sel = sel[:0]
			if len(vfs) == 0 {
				if rowPred == nil && (tc == nil || tc.dead == 0) && uw == nil {
					// Unfiltered scan over a fully live chunk: gather it
					// column-wise. (A chunk with dead rows falls through
					// to the selection-vector path so the tombstone
					// filter below applies.)
					rows := arena.allocRows(n, width)
					rd.gatherChunk(ci, rows)
					local = append(local, rows...)
					if err := tk.emitN(n); err != nil {
						return err
					}
					continue
				}
				for off := 0; off < n; off++ {
					sel = append(sel, int32(off))
				}
			} else {
				sel = vfs[0].firstPass(cols[vfs[0].col].chunkOf(ci), n, sel)
				for _, f := range vfs[1:] {
					if len(sel) == 0 {
						break
					}
					sel = f.refine(cols[f.col].chunkOf(ci), sel)
				}
			}
			if tc != nil && tc.dead > 0 && len(sel) > 0 {
				// Drop tombstoned rows before any residual predicate
				// work: dead rows must neither match nor cost per-row
				// evaluation.
				kept := sel[:0]
				for _, off := range sel {
					if !tc.has(int(off)) {
						kept = append(kept, off)
					}
				}
				sel = kept
			}
			if rowPred != nil && len(sel) > 0 {
				kept := sel[:0]
				for _, off := range sel {
					ok, err := rowPred(rd.rowAt(base + int(off)))
					if err != nil {
						return err
					}
					if ok {
						kept = append(kept, off)
					}
				}
				sel = kept
			}
			if uw != nil {
				live = run.livePairs(ci, live)
				for _, off := range sel {
					if uw.full() {
						break
					}
					if err := uw.expand(base+int(off), rd.rowAt(base+int(off)), live, nil, nil, false); err != nil {
						return err
					}
				}
			} else {
				for _, off := range sel {
					row := arena.alloc(width)
					rd.rowInto(row, base+int(off))
					local = append(local, row)
					if err := tk.emit(); err != nil {
						return err
					}
				}
			}
			// Rejected rows are work done but not rows produced: tick
			// the checkpoint cadence without charging the row budget.
			if err := tk.stepN(n - len(sel)); err != nil {
				return err
			}
		}
		if uw != nil {
			var err error
			if local, err = uw.finish(); err != nil {
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
	if ex.prof != nil {
		var skipped int64
		for _, s := range skips {
			skipped += s
		}
		ex.opEnd(t0, run.opStat(OpStat{Kind: "scan", Label: t.Name, RowsIn: int64(nrows), RowsOut: int64(len(out.rows)),
			Chunks: int64(nchunks), ChunksSkipped: skipped, ColsRead: width, ColsTotal: len(t.Schema), Workers: w}))
	}
	return out, nil
}
