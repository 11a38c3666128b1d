package rel

import (
	"fmt"
	"slices"
)

// The join operator. Comma-separated FROM units, joined greedily on the
// WHERE equalities, and LEFT OUTER JOIN … ON items both go through
// join, which picks one of three kernels:
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
// the worker count. Links compare as ids (idEqual): NULL joins nothing,
// and hash buckets and index postings are keyed by the same ids, so
// whether an index exists never changes an answer. The other conjuncts
// of an ON clause are checked per pair, and a LEFT OUTER join
// NULL-extends every left row it kept no pair for.

// joinSpec says how two relations join.
type joinSpec struct {
	links    []eqLink
	residual []Expr // ON conjuncts that are not links, checked per pair
	// outer marks a LEFT OUTER JOIN … ON, which keeps unmatched left
	// rows NULL-extended and is profiled as "join-on".
	outer bool
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

// joinUnits combines the comma-separated FROM units using the WHERE
// conjuncts: greedy ordering, joins on equality predicates, cross
// products as a last resort.
func (ex *exec) joinUnits(units []*relation, conjs []boundConj, applied []bool) (*relation, error) {
	if len(units) == 1 {
		return units[0], nil
	}
	used := make([]bool, len(units))
	// Start from the smallest unit.
	start := 0
	for i := 1; i < len(units); i++ {
		if units[i].rowCount() < units[start].rowCount() {
			start = i
		}
	}
	cur := units[start]
	used[start] = true
	for joined := 1; joined < len(units); joined++ {
		best, bestEq := -1, 0
		for i, u := range units {
			if used[i] {
				continue
			}
			eq := len(eqLinks(cur, u, conjs, applied))
			switch {
			case best < 0,
				eq > bestEq,
				eq == bestEq && u.rowCount() < units[best].rowCount():
				best, bestEq = i, eq
			}
		}
		next := units[best]
		used[best] = true
		links := eqLinks(cur, next, conjs, applied)
		for _, lk := range links {
			applied[lk.conj] = true
		}
		var err error
		cur, err = ex.join(cur, next, joinSpec{links: links})
		if err != nil {
			return nil, err
		}
		// Apply any conjunct now fully bound.
		var ready []Expr
		for i := range conjs {
			if !applied[i] && boundIn(&conjs[i], cur) {
				ready = append(ready, conjs[i].expr)
				applied[i] = true
			}
		}
		if len(ready) > 0 {
			cur, err = ex.filterRelation(cur, ready)
			if err != nil {
				return nil, err
			}
		}
	}
	return cur, nil
}

// onSpec splits an ON clause into the links between left and right
// and the residual conjuncts.
func onSpec(left, right *relation, jc *boundJoin) joinSpec {
	spec := joinSpec{links: eqLinks(left, right, jc.on, nil), outer: true}
	for i := range jc.on {
		if !slices.ContainsFunc(spec.links, func(lk eqLink) bool { return lk.conj == i }) {
			spec.residual = append(spec.residual, jc.on[i].expr)
		}
	}
	return spec
}

// eqLink describes an equality conjunct joining two relations.
type eqLink struct {
	conj int
	li   int // column position in left
	ri   int // column position in right
}

// eqLinks lists the `colref = colref` conjuncts (skipping applied
// ones when applied is non-nil) that link a column of l to one of r.
func eqLinks(l, r *relation, conjs []boundConj, applied []bool) []eqLink {
	var out []eqLink
	for i := range conjs {
		c := &conjs[i]
		if c.l == nil || (applied != nil && applied[i]) {
			continue
		}
		if li := l.colIndex(c.l); li >= 0 {
			if ri := r.colIndex(c.r); ri >= 0 {
				out = append(out, eqLink{conj: i, li: li, ri: ri})
				continue
			}
		}
		if li := l.colIndex(c.r); li >= 0 {
			if ri := r.colIndex(c.l); ri >= 0 {
				out = append(out, eqLink{conj: i, li: li, ri: ri})
			}
		}
	}
	return out
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
		col := r.cols[pos].name
		if r.base.HasIndex(col) {
			return i, col
		}
	}
	return -1, ""
}

// join joins l and r under spec into a relation of l's columns followed
// by r's, choosing the kernel.
func (ex *exec) join(l, r *relation, spec joinSpec) (*relation, error) {
	out := combineShape(l, r)
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
			if ml, err = ex.materialize(l); err != nil {
				return nil, err
			}
			if ml.rows.n < r.rowCount() {
				return joined(out, ex.indexProbe(out, ml, r, li, col, true, &spec))
			}
		}
		if li, col := indexLink(l, spec.links, false); li >= 0 && !spec.outer {
			if mr, err = ex.materialize(r); err != nil {
				return nil, err
			}
			if mr.rows.n < l.rowCount() {
				return joined(out, ex.indexProbe(out, mr, l, li, col, false, &spec))
			}
		}
	}
	if ml == nil {
		if ml, err = ex.materialize(l); err != nil {
			return nil, err
		}
	}
	if mr == nil {
		if mr, err = ex.materialize(r); err != nil {
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
	res   func(Row) (bool, error) // the compiled residual; nil when none
	outer bool
}

// pair keeps l and r combined when the residual accepts them, and
// reports whether it did.
func (w *joinWorker) pair(l, r Row) (bool, error) {
	row := w.out.push(l, r)
	if w.res != nil {
		if ok, err := w.res(row); !ok || err != nil {
			w.out.pop()
			return false, err
		}
	}
	return true, w.tk.emit()
}

// unmatched keeps left row l NULL-extended under an outer join; the
// join kept no pair for it.
func (w *joinWorker) unmatched(l Row) error {
	if !w.outer {
		return nil
	}
	row := w.out.push(l, nil)
	for i := len(l); i < len(row); i++ {
		row[i] = NullCell
	}
	return w.tk.emit()
}

// probeRows runs a kernel's probe loop, body, over rows in morsels, one
// joinWorker each, and collects the workers' rows into out in input
// order. It returns the worker count.
func (ex *exec) probeRows(out *relation, rows batch, site CheckSite, spec *joinSpec, body func(w *joinWorker, rows batch) error) (int, error) {
	var res func(Row) (bool, error)
	if len(spec.residual) > 0 {
		res = ex.db.compilePred(spec.residual, out)
	}
	w := planWorkers(rows.n)
	parts := ex.workBufs(w, len(out.cols))
	err := parallelChunks(rows.n, w, func(chunk, lo, hi int) error {
		jw := &joinWorker{tk: ticker{g: ex.gov, site: site, rowBytes: int64(len(out.cols)) * cellBytes}, out: &parts[chunk], res: res, outer: spec.outer}
		if err := jw.tk.flush(); err != nil {
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
	out.rows = flatten(len(out.cols), parts)
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
	pendOK := ex.db.compilePred(pending, indexed)
	w, err := ex.probeRows(out, probe.rows, site, spec, func(jw *joinWorker, rows batch) error {
		uw := run.worker(&jw.tk, jw.out)
		// Each worker owns its reader: reads share a per-reader scratch
		// row, consumed before the next rowAt (push copies).
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
				if err == nil && !ok {
					err = jw.tk.step() // a rejected pair is work too
				}
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

func combineShape(l, r *relation) *relation {
	out := &relation{
		cols:    make([]relCol, 0, len(l.cols)+len(r.cols)),
		aliases: make([]string, 0, len(l.aliases)+len(r.aliases)),
	}
	out.cols = append(append(out.cols, l.cols...), r.cols...)
	out.aliases = append(append(out.aliases, l.aliases...), r.aliases...)
	return out
}
