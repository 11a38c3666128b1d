package rel

import "fmt"

// The join operator. A core's two comma-separated units, joined on the
// WHERE equalities between them, and each LEFT OUTER JOIN … ON of a
// unit's chain both go through join, which picks one of three kernels:
//
//   - index probe: one side is an unmaterialized scan of a base table
//     with a hash index on a link column and the other side is smaller,
//     so each row of the small side probes the index;
//   - hash join: the right side is built into a hash table on the link
//     columns and the left side probes it;
//   - nested loop: there are no links, so every pair is tried.
//
// Every kernel fans its probe rows out across morsel workers, each with
// its own ticker and rowBuf, and flattens the rowBufs in input
// order: rows come out in probe order, then candidate order, whatever
// the worker count. A pair is a candidate in the layout Bind fixed,
// FROM order, whichever side probes. The join that is its core's last
// producer hands each candidate to the core's emit step (joinSpec.em),
// which writes only the core's items; a chain join before the last
// writes the candidate whole. Links compare as ids (idEqual): NULL
// joins nothing, and hash buckets and index postings are keyed by the
// same ids, so whether an index exists never changes an answer. The
// other conjuncts of an ON clause are checked per pair, and a LEFT
// OUTER join NULL-extends every left row it kept no pair for.

// joinSpec says how two relations join.
type joinSpec struct {
	links    []eqLink
	residual []Expr // ON conjuncts that are not links, checked per pair
	// outer marks a LEFT OUTER JOIN … ON, which keeps unmatched left
	// rows NULL-extended and is profiled as "join-on".
	outer bool
	// swap writes each pair right side first: a comma join whose left
	// side is unit 1 still lays its cells out in FROM order.
	swap bool
	// em is the core's emit step when the join is its core's last
	// producer; nil keeps pairs whole.
	em *emitter
}

// stat names a kernel's profile entry: a comma join reports the
// kernel's own kind, a LEFT OUTER JOIN reports "join-on" labelled
// onLabel.
func (s *joinSpec) stat(st OpStat, onLabel string) OpStat {
	if s.outer {
		st.Kind, st.Label = "join-on", onLabel
	}
	return st
}

// joinUnits joins a core's two units on the WHERE links between them
// and emits the core's rows through em. The smaller by rowCount (unit 0
// on a tie) is the join's left side.
func (ex *exec) joinUnits(units [2]*relation, links *[2][]eqLink, em *emitter) (*relation, error) {
	s := 0
	if units[1].rowCount() < units[0].rowCount() {
		s = 1
	}
	return ex.join(units[s], units[1-s], joinSpec{links: links[s], swap: s == 1, em: em})
}

// indexLink finds a join link whose probe side is an indexed column of
// a base-scan relation, returning the link index and column name.
func indexLink(r *relation, links []eqLink, right bool) (int, string) {
	if r.base == nil {
		return -1, ""
	}
	for i, lk := range links {
		pos := lk.ri
		if !right {
			pos = lk.li
		}
		if pos >= len(r.src) {
			continue // a fused lateral column, not a table column
		}
		col := r.base.names[r.src[pos]]
		if r.base.HasIndex(col) {
			return i, col
		}
	}
	return -1, ""
}

// join joins l and r under spec, choosing the kernel.
func (ex *exec) join(l, r *relation, spec joinSpec) (*relation, error) {
	out := &relation{rows: batch{width: l.rows.width + r.rows.width}}
	// Index nested-loop when one side is an indexed base table and the
	// other side is smaller: probe the index per row instead of hashing
	// the whole table. The side sizing compares post-filter
	// cardinalities: the probing side is materialized before the
	// comparison (its pending filters would otherwise overstate it,
	// and it must be materialized to probe anyway); the indexed side's
	// raw row count is an upper bound, since materializing it would
	// destroy the very index access under consideration — its pending
	// filters are instead evaluated per probed row. An outer join keeps
	// every left row, so only its right side can be the indexed one.
	var ml, mr *relation
	var err error
	if len(spec.links) > 0 {
		if li, col := indexLink(r, spec.links, true); li >= 0 {
			if ml, err = ex.materialize(l, nil); err != nil {
				return nil, err
			}
			if ml.rows.n < r.rowCount() {
				return joined(out, ex.indexProbe(out, ml, r, li, col, true, &spec))
			}
		}
		if li, col := indexLink(l, spec.links, false); li >= 0 && !spec.outer {
			if mr, err = ex.materialize(r, nil); err != nil {
				return nil, err
			}
			if mr.rows.n < l.rowCount() {
				return joined(out, ex.indexProbe(out, mr, l, li, col, false, &spec))
			}
		}
	}
	if ml == nil {
		if ml, err = ex.materialize(l, nil); err != nil {
			return nil, err
		}
	}
	if mr == nil {
		if mr, err = ex.materialize(r, nil); err != nil {
			return nil, err
		}
	}
	if len(spec.links) == 0 {
		return joined(out, ex.nestedLoop(out, ml, mr, &spec))
	}
	return joined(out, ex.hashJoin(out, ml, mr, &spec))
}

// joined returns the relation a kernel filled, or the kernel's error.
func joined(out *relation, err error) (*relation, error) {
	if err != nil {
		return nil, err
	}
	return out, nil
}

// joinWorker is one morsel worker of a join kernel: its ticker and the
// rows it kept.
type joinWorker struct {
	tk    ticker
	out   *rowBuf
	em    *emitter
	res   func(Row) (bool, error) // the compiled ON residual; nil when none
	width int                     // a pair's cells
	outer bool
	swap  bool
}

// pair hands l and r, combined in FROM order, to the emit step when the
// ON residual accepts them, and reports whether it did: a pair the
// core's residual then drops still matched its left row.
func (w *joinWorker) pair(l, r Row) (bool, error) {
	if w.swap {
		l, r = r, l
	}
	if w.res != nil {
		row := w.out.scratch(len(l) + len(r))
		copy(row[copy(row, l):], r)
		if ok, err := w.res(row); !ok || err != nil {
			if err == nil {
				err = w.tk.step() // a rejected pair is work too
			}
			return false, err
		}
		l, r = row, nil
	}
	return true, w.em.put(&w.tk, w.out, l, r)
}

// unmatched emits left row l NULL-extended under an outer join; the
// join kept no pair for it. An outer join never swaps: its left side is
// the chain before it.
func (w *joinWorker) unmatched(l Row) error {
	if !w.outer {
		return nil
	}
	row := w.out.scratch(w.width)
	for i := copy(row, l); i < len(row); i++ {
		row[i] = NullCell
	}
	return w.em.put(&w.tk, w.out, row, nil)
}

// probeRows runs a kernel's probe loop, body, over rows in morsels, one
// joinWorker each, and collects the rows the workers emitted into out
// in input order. It returns the worker count.
func (ex *exec) probeRows(out *relation, rows batch, site CheckSite, spec *joinSpec, body func(w *joinWorker, rows batch) error) (int, error) {
	var res func(Row) (bool, error)
	if len(spec.residual) > 0 {
		res = ex.db.compilePred(spec.residual, 0) // an ON clause reads its unit's row
	}
	width := spec.em.width(out.rows.width)
	w := planWorkers(rows.n)
	parts := ex.workBufs(w, width)
	err := parallelChunks(rows.n, w, func(chunk, lo, hi int) error {
		jw := &joinWorker{tk: ticker{g: ex.gov, site: site, rowBytes: int64(width) * cellBytes}, out: &parts[chunk], em: spec.em, res: res,
			width: out.rows.width, outer: spec.outer, swap: spec.swap}
		if err := jw.tk.flush(); err != nil {
			return err
		}
		if err := spec.em.start(ex.gov); err != nil {
			return err
		}
		if err := body(jw, rows.slice(lo, hi)); err != nil {
			return err
		}
		return jw.tk.flush()
	})
	if err != nil {
		return w, err
	}
	out.rows = flatten(width, parts)
	return w, nil
}

// indexProbe joins by probing indexed's base-table hash index with
// every probe row, verifying all links and indexed's pending filters
// per candidate. indexedIsRight says whether indexed is the join's
// right side.
func (ex *exec) indexProbe(out *relation, probe, indexed *relation, li int, col string, indexedIsRight bool, spec *joinSpec) error {
	t0 := ex.opStart()
	idx := indexed.base.indexFor(col)
	if idx == nil {
		return fmt.Errorf("sql: internal: index on %q vanished", col)
	}
	links := spec.links
	keyPos := links[li].li
	if !indexedIsRight {
		keyPos = links[li].ri
	}
	// With a lateral item fused into indexed, the pending filters and
	// links over table columns are settled on the narrow row, the rest
	// per pair inside expand. A fused lateral only rides a pushed scan,
	// and an ON clause's sides are built unpushed, so expand never
	// meets a residual or an outer join.
	pending, run := ex.startUnpivot(indexed, indexed.pending)
	site := CkIndexProbe
	verify, pairLinks := links, []eqLink(nil)
	if run != nil {
		site = CkUnpivot
		verify, pairLinks = run.splitLinks(links, indexedIsRight)
	}
	pendOK := ex.db.compilePred(pending, 0)
	w, err := ex.probeRows(out, probe.rows, site, spec, func(jw *joinWorker, rows batch) error {
		uw := run.worker(&jw.tk, jw.out, jw.swap, spec.em)
		// Each worker owns its reader: reads share a per-reader scratch
		// row, consumed before the next rowAt (the emit step copies).
		rd := indexed.base.reader(indexed.src)
		for i := 0; i < rows.n; i++ {
			pr := rows.row(i)
			if err := jw.tk.step(); err != nil {
				return err
			}
			matched := false
			if !nullKey(pr, links, indexedIsRight) { // NULL joins nothing
				for _, id := range idx.posts.find(pr[keyPos].I) {
					if err := jw.tk.step(); err != nil {
						return err
					}
					ir := rd.rowAt(int(id))
					l, r := pr, ir
					if !indexedIsRight {
						l, r = ir, pr
					}
					if !linkKeyEqual(l, r, verify) {
						continue
					}
					ok, err := pendOK(ir)
					switch {
					case err != nil || !ok:
					case uw != nil:
						err = uw.expand(int(id), ir, run.all, pr, pairLinks, indexedIsRight)
					default:
						ok, err = jw.pair(l, r)
						matched = matched || ok
					}
					if err != nil {
						return err
					}
				}
			}
			if !matched {
				if err := jw.unmatched(pr); err != nil {
					return err
				}
			}
		}
		uw.finish()
		return nil
	})
	if err != nil {
		return err
	}
	if ex.prof != nil {
		st := OpStat{Kind: "index-join", Label: indexed.base.Name + "." + col, RowsIn: int64(probe.rows.n), RowsOut: int64(out.rows.n),
			ColsRead: len(indexed.src), ColsTotal: len(indexed.base.Schema), Workers: w}
		ex.opEnd(t0, run.opStat(spec.stat(st, "index "+st.Label)))
	}
	return nil
}

// hashJoin builds a hash table on r's link columns and probes it with
// l's rows. The table maps a linkKey — one link's id exactly, so a
// candidate needs no verification, or several links' hash, verified per
// candidate — to 1 + the first of r's rows with that key (0, a missing
// key, is none), and next chains each row to the following one, so
// candidates come in r's order.
func (ex *exec) hashJoin(out *relation, l, r *relation, spec *joinSpec) error {
	t0 := ex.opStart()
	links := spec.links
	verify := len(links) > 1
	bt := ticker{g: ex.gov, site: CkHashBuild}
	if err := bt.flush(); err != nil {
		return err
	}
	head := make(map[int64]int32, r.rows.n)
	next := make([]int32, r.rows.n)
	var built int64
	for i := r.rows.n - 1; i >= 0; i-- { // backwards, so chains run forwards
		if err := bt.step(); err != nil {
			return err
		}
		k, ok := linkKey(r.rows.row(i), links, false)
		if !ok {
			continue // NULLs never join
		}
		head[k], next[i] = int32(i)+1, head[k]-1
		built++
		bt.bytes += hashEntryBytes
	}
	if err := bt.flush(); err != nil {
		return err
	}
	w, err := ex.probeRows(out, l.rows, CkHashProbe, spec, func(jw *joinWorker, rows batch) error {
		for i := 0; i < rows.n; i++ {
			lr := rows.row(i)
			if err := jw.tk.step(); err != nil {
				return err
			}
			j := int32(-1)
			if k, ok := linkKey(lr, links, true); ok {
				j = head[k] - 1
			}
			matched := false
			for ; j >= 0; j = next[j] {
				rr := r.rows.row(int(j))
				if verify && !linkKeyEqual(lr, rr, links) {
					continue
				}
				ok, err := jw.pair(lr, rr)
				if err != nil {
					return err
				}
				matched = matched || ok
			}
			if !matched {
				if err := jw.unmatched(lr); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ex.opEnd(t0, spec.stat(OpStat{Kind: "hash-join", RowsIn: int64(l.rows.n), BuildRows: built, RowsOut: int64(out.rows.n), Workers: w}, "hash"))
	return nil
}

// nestedLoop tries every pair of l's and r's rows: a cross product,
// unless an ON clause's residual filters it.
func (ex *exec) nestedLoop(out *relation, l, r *relation, spec *joinSpec) error {
	t0 := ex.opStart()
	w, err := ex.probeRows(out, l.rows, CkCross, spec, func(jw *joinWorker, rows batch) error {
		for i := 0; i < rows.n; i++ {
			lr := rows.row(i)
			if err := jw.tk.step(); err != nil {
				return err
			}
			matched := false
			for j := 0; j < r.rows.n; j++ {
				ok, err := jw.pair(lr, r.rows.row(j))
				if err != nil {
					return err
				}
				matched = matched || ok
			}
			if !matched {
				if err := jw.unmatched(lr); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ex.opEnd(t0, spec.stat(OpStat{Kind: "cross-join", RowsIn: int64(l.rows.n), BuildRows: int64(r.rows.n), RowsOut: int64(out.rows.n), Workers: w}, "nested"))
	return nil
}
