package rel

import "math/bits"

// Vectorized scan over a columnar base table. Instead of materializing
// every row and filtering row-at-a-time, the scan works one chunk
// (1024 rows) at a time per morsel worker:
//
//  1. zone-map check — per-chunk min/max bounds can prove no row of
//     the chunk holds an equality's literal, skipping the chunk before
//     any per-row work;
//  2. selection vector — the `col = <int literal>` conjuncts, on any
//     column, are evaluated directly against the raw or bit-packed
//     vectors, producing the in-chunk offsets of surviving rows;
//  3. residual predicates — every other conjunct (joins of two
//     columns, OR trees, functions, and any range, `!=` or NULL test a
//     hand-written query brings) runs the ordinary compiled-closure
//     path over a scratch-materialized row, but only for rows that
//     survived step 2;
//  4. emit — survivors go through the core's emit step (exec.go's
//     emitter) when the scan is its core's last producer. When that
//     step only copies columns, or the scan feeds a join, the columns
//     it writes are read straight into the worker's rowBuf instead, an
//     unfiltered live chunk column by column at the row stride.
//
// Equality is the one vectorized shape because it is the one shape
// translated SQL puts on a stored column: cells are dictionary ids, and
// id order is only assignment order, so no SPARQL question is a range
// over them.
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

// eqFilter is the one vectorizable conjunct, `col = <int literal>`:
// the column at relation position col against val.
type eqFilter struct {
	col int
	val int64
}

// compileEqFilters splits conds, conjuncts over a scan's table columns,
// into the equality filters the chunk kernels answer and the residual
// row-at-a-time predicates.
func compileEqFilters(conds []Expr) (eqs []eqFilter, residual []Expr) {
	for _, c := range conds {
		if col, id, ok := intEquality(c); ok {
			eqs = append(eqs, eqFilter{col: col.pos, val: id})
		} else {
			residual = append(residual, c)
		}
	}
	return eqs, residual
}

// skipChunk consults the chunk's zone map: true means no row in the
// chunk can hold the literal. ck == nil is an all-NULL chunk, and NULL
// equals nothing.
func (f eqFilter) skipChunk(ck *colChunk) bool {
	return ck == nil || ck.n == 0 || !ck.zoneInit || f.val < ck.min || f.val > ck.max
}

// firstPass appends to sel the in-chunk offsets of the rows that hold
// the literal. ck is non-nil: skipChunk has ruled that out. A raw chunk
// walks the presence bitmap's set bits with a running packed cursor, so
// each value is read sequentially — no per-row rank.
func (f eqFilter) firstPass(ck *colChunk, sel []int32) []int32 {
	if ck.packed != nil {
		return f.firstPassPacked(ck, sel)
	}
	k := 0
	for w := 0; w < chunkWords; w++ {
		word := ck.bits[w]
		for word != 0 {
			off := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if ck.ints[k] == f.val {
				sel = append(sel, int32(off))
			}
			k++
		}
	}
	return sel
}

// firstPassPacked is the first pass over a sealed FoR bit-packed chunk:
// the literal is rebased into the delta domain once, and each packed
// field is tested in place — no value is ever decoded back to int64.
func (f eqFilter) firstPassPacked(ck *colChunk, sel []int32) []int32 {
	w := uint(ck.packedW)
	if w == 0 { // every value equals the reference
		if ck.ref != f.val {
			return sel
		}
		for wi := 0; wi < chunkWords; wi++ {
			word := ck.bits[wi]
			for word != 0 {
				sel = append(sel, int32(wi<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		return sel
	}
	// The zone map is widen-only, so it may admit a literal outside the
	// deltas the chunk can represent.
	if f.val < ck.ref || uint64(f.val)-uint64(ck.ref) >= uint64(1)<<w {
		return sel
	}
	dl := uint64(f.val) - uint64(ck.ref)
	mask := uint64(1)<<w - 1
	lpw := packLanes(w)
	packed := ck.packed
	if ck.n == chunkRows {
		// Dense chunk: rank == offset, so the lanes stream word by
		// word. XOR each word with the literal replicated into every
		// lane, then detect a zero lane with the carry trick
		// ((x-ones)&^x&highs is nonzero iff some lane of x is zero —
		// exact for existence). A non-matching word retires in ~5 ops
		// for lpw lanes; only matching words rescan per lane.
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
			if d == dl {
				sel = append(sel, int32(off))
			}
		}
	}
	return sel
}

// refine keeps only the rows of sel that also hold the literal,
// compacting in place. ck is non-nil, as for firstPass.
func (f eqFilter) refine(ck *colChunk, sel []int32) []int32 {
	kept := sel[:0]
	for _, off := range sel {
		if ck.has(int(off)) && ck.intAt(ck.rank(int(off))) == f.val {
			kept = append(kept, off)
		}
	}
	return kept
}

// vecScan materializes a base-table scan relation (r.base), applying
// its pending conjuncts with the chunk pipeline described at the top of
// the file, and emits its rows through em. Chunks are partitioned
// across morsel workers and the per-worker outputs flattened in chunk
// order, so the result is row-for-row identical to a sequential scan in
// row-id order.
func (ex *exec) vecScan(r *relation, em *emitter) (*relation, error) {
	t0 := ex.opStart()
	t := r.base
	out := &relation{}
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
	eqs, residual := compileEqFilters(pending)
	var rowPred func(Row) (bool, error)
	if len(residual) > 0 {
		rowPred = ex.db.compilePred(residual, 0)
	}
	// direct reads the columns the scan writes, in place; nil when the
	// emit step needs each selected row whole (or a lateral expands it).
	var direct *tableReader
	if run == nil {
		direct = em.reader(head)
	}
	nchunks := (nrows + chunkRows - 1) >> chunkShift
	w := planWorkers(nrows)
	if w > nchunks && nchunks > 0 {
		w = nchunks
	}
	width := len(cols)
	outWidth := em.width(r.rows.width)
	parts := ex.workBufs(w, outWidth)
	// Per-worker zone-skip counters, allocated only when profiling so
	// the disabled path stays allocation-free.
	var skips []int64
	if ex.prof != nil {
		skips = make([]int64, w)
	}
	err := parallelChunks(nchunks, w, func(chunk, clo, chi int) error {
		tk := ticker{g: ex.gov, site: site, rowBytes: int64(outWidth) * cellBytes}
		if err := tk.flush(); err != nil {
			return err
		}
		if err := em.start(ex.gov); err != nil {
			return err
		}
		local := &parts[chunk]
		uw := run.worker(&tk, local, false, em)
		var sel, live []int32
		rd := *head
	chunks:
		for ci := clo; ci < chi; ci++ {
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
			for _, f := range eqs {
				if f.skipChunk(cols[f.col].chunkOf(ci)) {
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
			if len(eqs) == 0 {
				if rowPred == nil && (tc == nil || tc.dead == 0) && direct != nil {
					// Unfiltered scan over a fully live chunk whose
					// columns go straight into place: gather it
					// column-wise. (A chunk with dead rows falls through
					// to the selection-vector path so the tombstone
					// filter below applies.)
					cells := local.grow(n)
					for i := range cells {
						cells[i] = NullCell
					}
					for j, c := range direct.cols {
						c.gatherChunk(ci, cells, len(direct.cols), j)
					}
					if err := tk.emitN(n); err != nil {
						return err
					}
					continue
				}
				for off := 0; off < n; off++ {
					sel = append(sel, int32(off))
				}
			} else {
				sel = eqs[0].firstPass(cols[eqs[0].col].chunkOf(ci), sel)
				for _, f := range eqs[1:] {
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
					if err := uw.expand(base+int(off), rd.rowAt(base+int(off)), live, nil, nil, false); err != nil {
						return err
					}
				}
			} else if direct != nil {
				dw := len(direct.cols)
				cells := local.grow(len(sel))
				for k, off := range sel {
					direct.rowInto(cells[k*dw:(k+1)*dw], base+int(off))
					if err := tk.emit(); err != nil {
						return err
					}
				}
			} else {
				for _, off := range sel {
					if err := em.put(&tk, local, rd.rowAt(base+int(off)), nil); err != nil {
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
		uw.finish()
		return tk.flush()
	})
	if err != nil {
		return nil, err
	}
	out.rows = flatten(outWidth, parts)
	if ex.prof != nil {
		var skipped int64
		for _, s := range skips {
			skipped += s
		}
		ex.opEnd(t0, run.opStat(OpStat{Kind: "scan", Label: t.Name, RowsIn: int64(nrows), RowsOut: int64(out.rows.n),
			Chunks: int64(nchunks), ChunksSkipped: skipped, ColsRead: width, ColsTotal: len(t.Schema), Workers: w}))
	}
	return out, nil
}
