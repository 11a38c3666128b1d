package store

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/wal"
)

// Parallel bulk loading. The loader is a three-stage pipeline:
//
//  1. parse + dictionary-encode on worker goroutines (the dictionary is
//     internally synchronized, so workers intern terms concurrently);
//  2. partition the encoded triples by entity id — the direct side by
//     subject, the reverse side by object — so that all triples of one
//     entity land in exactly one bucket;
//  3. insert the buckets concurrently: one goroutine per bucket per
//     side. A worker reads only the entry and lid postings of entities
//     its bucket owns, and elm postings, which other workers only
//     append to past what it read; the tables lock each probe and
//     append, predicate-keyed state goes through the side's predMu, and
//     new entities' rows are appended in batches.
//
// Entities not seen before the load are built as rows in worker-local
// memory (filled in place, no per-update row cloning) and appended to
// DPH/RPH in one batch per bucket, which is also what makes the bulk
// path faster than the incremental path on a single core.
//
// Duplicates are detected on the direct side exactly as in Insert, so
// only fresh triples are counted and logged: a parallel load of
// already-loaded data changes nothing.

// encTriple is a dictionary-encoded triple plus the predicate URI the
// column mapping is keyed by.
type encTriple struct {
	s, p, o int64
	pred    string
}

// encodeChunk is the number of input lines handed to an encode worker
// at a time.
const encodeChunk = 1024

// normWorkers clamps a worker count to [1, 4*GOMAXPROCS].
func normWorkers(w int) int {
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if max := 4 * runtime.GOMAXPROCS(0); w > max && w > 4 {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// LoadParallel reads N-Triples from r and bulk-loads them using the
// given number of workers (<=0 means GOMAXPROCS). It returns the
// number of triples parsed. Unlike Load, a parse error aborts the load
// before any triple is inserted. The resulting store state is
// equivalent to a sequential Load of the same data: identical
// statistics and identical (canonically sorted) export.
func (s *Store) LoadParallel(r io.Reader, workers int) (int, error) {
	workers = normWorkers(workers)
	s.mu.Lock()
	defer s.mu.Unlock()
	enc, err := s.encodeStream(r, workers)
	if err != nil {
		return 0, err
	}
	fresh, err := s.bulkLoadLocked(enc, workers)
	if fresh > 0 {
		if perr := s.publishLocked(); perr != nil && err == nil {
			err = perr
		}
	}
	return len(enc), err
}

// LoadTriplesParallel bulk-loads a slice of triples with the given
// number of workers (<=0 means GOMAXPROCS).
func (s *Store) LoadTriplesParallel(ts []rdf.Triple, workers int) error {
	workers = normWorkers(workers)
	s.mu.Lock()
	defer s.mu.Unlock()
	enc := s.encodeSlice(ts, workers)
	fresh, err := s.bulkLoadLocked(enc, workers)
	if fresh > 0 {
		if perr := s.publishLocked(); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// lineChunk is one dispatch unit of the encode pipeline: a run of
// input lines plus the 1-based line number of the first, so a worker
// can report errors by absolute input position.
type lineChunk struct {
	base  int
	lines []string
}

// encodeErrs tracks the earliest parse error across encode workers.
// minLine doubles as the cheap abort signal: the scanner polls it to
// stop dispatching, and workers use it to skip queued chunks that lie
// entirely after the known-first error.
type encodeErrs struct {
	minLine atomic.Int64 // math.MaxInt64 = no error yet
	mu      sync.Mutex
	line    int
	err     error
}

func (e *encodeErrs) record(line int, err error) {
	e.mu.Lock()
	if e.err == nil || line < e.line {
		e.line, e.err = line, err
	}
	e.mu.Unlock()
	for {
		cur := e.minLine.Load()
		if int64(line) >= cur || e.minLine.CompareAndSwap(cur, int64(line)) {
			return
		}
	}
}

// encodeStream parses and encodes N-Triples concurrently. Lines are
// scanned sequentially (the scanner is the only stage that must be
// serial) and dispatched to workers in chunks.
//
// Error handling: the first parse error (by input line, not by which
// worker happened to hit it first) aborts the load. The scanner stops
// dispatching, already-queued chunks positioned after the error are
// drained without parsing, and the channel is closed so every worker
// exits — no goroutine outlives the call. Chunks before the error are
// still parsed, which is what makes "first" deterministic: an earlier
// error in a slower worker's queue always wins.
func (s *Store) encodeStream(r io.Reader, workers int) ([]encTriple, error) {
	in := make(chan lineChunk, workers)
	parts := make([][]encTriple, workers)
	ee := &encodeErrs{}
	ee.minLine.Store(math.MaxInt64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]encTriple, 0, encodeChunk)
			for chunk := range in {
				if int64(chunk.base) > ee.minLine.Load() {
					continue // wholly after the first known error: drain
				}
				for i, line := range chunk.lines {
					line = strings.TrimSpace(line)
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					t, err := rdf.ParseTripleLine(line)
					if err != nil {
						ee.record(chunk.base+i, err)
						break
					}
					local = append(local, s.encodeTriple(t))
				}
			}
			parts[w] = local
		}(w)
	}

	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	chunk := make([]string, 0, encodeChunk)
	base, lineNo := 1, 0
	aborted := false
	for scan.Scan() {
		if ee.minLine.Load() != math.MaxInt64 {
			aborted = true
			break
		}
		lineNo++
		if len(chunk) == 0 {
			base = lineNo
		}
		chunk = append(chunk, scan.Text())
		if len(chunk) == encodeChunk {
			in <- lineChunk{base: base, lines: chunk}
			chunk = make([]string, 0, encodeChunk)
		}
	}
	if len(chunk) > 0 && !aborted {
		in <- lineChunk{base: base, lines: chunk}
	}
	close(in)
	wg.Wait()
	if ee.err != nil {
		return nil, fmt.Errorf("line %d: %w", ee.line, ee.err)
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	enc := make([]encTriple, 0, total)
	for _, p := range parts {
		enc = append(enc, p...)
	}
	return enc, nil
}

// encodeSlice encodes a triple slice in parallel over index ranges.
func (s *Store) encodeSlice(ts []rdf.Triple, workers int) []encTriple {
	enc := make([]encTriple, len(ts))
	if len(ts) == 0 {
		return enc
	}
	var wg sync.WaitGroup
	stride := (len(ts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * stride
		if lo >= len(ts) {
			break
		}
		hi := lo + stride
		if hi > len(ts) {
			hi = len(ts)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				enc[i] = s.encodeTriple(ts[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return enc
}

func (s *Store) encodeTriple(t rdf.Triple) encTriple {
	return encTriple{
		s:    s.Dict.Encode(t.S),
		p:    s.Dict.Encode(t.P),
		o:    s.Dict.Encode(t.O),
		pred: t.P.Value,
	}
}

// bulkLoadLocked partitions encoded triples by entity and inserts the
// buckets concurrently, adding the number of fresh (non-duplicate)
// triples to the triple counter and returning it so the caller can
// decide whether to bump the epoch. The caller holds the store write
// lock. The count may overstate what landed when a bucket errors
// mid-append — a spurious epoch bump is harmless, a missed one is not.
func (s *Store) bulkLoadLocked(enc []encTriple, workers int) (int, error) {
	if len(enc) == 0 {
		return 0, nil
	}
	// Partition by entity, so each entity is owned by exactly one
	// goroutine per side.
	directBuckets := make([][]encTriple, workers)
	reverseBuckets := make([][]encTriple, workers)
	for _, e := range enc {
		dw := uint64(e.s) % uint64(workers)
		rw := uint64(e.o) % uint64(workers)
		directBuckets[dw] = append(directBuckets[dw], e)
		reverseBuckets[rw] = append(reverseBuckets[rw], e)
	}

	// A failed bucket sets abort so sibling workers stop at their next
	// entity-group boundary instead of loading on; all of them still
	// drain through wg.Wait, so no goroutine leaks (the first error, in
	// deterministic bucket order, is returned).
	freshParts := make([]int, workers)
	errs := make([]error, 2*workers)
	// Per-worker WAL delta capture (nil slots when durability is off).
	// The direct side owns capture — it is the side that detects
	// freshness — and the parts are merged in worker order below, so
	// the pending batch is deterministic for a given partition.
	var deltaParts [][]walDelta
	if s.dur != nil {
		deltaParts = make([][]walDelta, workers)
	}
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			var deltas *[]walDelta
			if deltaParts != nil {
				deltas = &deltaParts[w]
			}
			freshParts[w], errs[w] = s.direct.bulkInsert(s, directBuckets[w], false, &abort, deltas)
		}(w)
		go func(w int) {
			defer wg.Done()
			_, errs[workers+w] = s.reverse.bulkInsert(s, reverseBuckets[w], true, &abort, nil)
		}(w)
	}
	wg.Wait()
	fresh := 0
	for _, f := range freshParts {
		fresh += f
	}
	s.triples += int64(fresh)
	// Merge captured deltas even when a bucket errored: whatever landed
	// in the tables is about to be published, so it must be logged.
	if s.dur != nil {
		for _, part := range deltaParts {
			s.dur.pending = append(s.dur.pending, part...)
		}
	}
	for _, err := range errs {
		if err != nil {
			return fresh, err
		}
	}
	return fresh, nil
}

// bulkAgg accumulates a bucket's predicate-keyed side effects so the
// side's predMu is taken once per bucket instead of once per triple,
// and the (lid, member) pairs of the lists its new entities build,
// which are not in the secondary table until the bucket's batch lands.
type bulkAgg struct {
	spillPreds map[int64]bool
	multiPreds map[int64]bool
	listed     map[[2]int64]bool
}

// bulkInsert loads one bucket into the side, returning the number of
// fresh (non-duplicate) triples it placed. Triples of entities the
// store has never seen (the common bulk case) are built as rows in
// local memory and batch-appended; entities with existing rows fall
// back to the incremental insert path. abort is the load-wide failure
// flag: set on the first error, polled at entity-group boundaries so
// sibling buckets stop early instead of completing a doomed load.
func (d *side) bulkInsert(s *Store, bucket []encTriple, reverse bool, abort *atomic.Bool, deltas *[]walDelta) (int, error) {
	if len(bucket) == 0 {
		return 0, nil
	}
	colCache := make(map[string][]int)
	colsFor := func(pred string) []int {
		cols, ok := colCache[pred]
		if !ok {
			cols = d.mapping.Columns(pred)
			colCache[pred] = cols
		}
		return cols
	}

	// Group the bucket by entity, preserving first-seen order.
	order := make([]int64, 0, len(bucket)/2)
	byEntity := make(map[int64][]encTriple, len(bucket)/2)
	for _, e := range bucket {
		ent := e.s
		if reverse {
			ent = e.o
		}
		if _, seen := byEntity[ent]; !seen {
			order = append(order, ent)
		}
		byEntity[ent] = append(byEntity[ent], e)
	}

	var pendingPrimary []rel.Row
	var pendingSecondary []rel.Row
	newEntities := 0
	agg := &bulkAgg{spillPreds: make(map[int64]bool), multiPreds: make(map[int64]bool), listed: make(map[[2]int64]bool)}
	freshTotal := 0

	for gi, ent := range order {
		if gi&63 == 0 && abort.Load() {
			return freshTotal, nil // a sibling bucket failed; its error is reported
		}
		encs := byEntity[ent]
		if len(d.rows(ent)) > 0 {
			// Entity already has table rows: incremental path.
			for _, e := range encs {
				entity, member := e.s, e.o
				if reverse {
					entity, member = e.o, e.s
				}
				fresh, err := d.insert(s, entity, e.p, member, e.pred)
				if err != nil {
					abort.Store(true)
					return freshTotal, err
				}
				if fresh {
					freshTotal++
					if deltas != nil {
						*deltas = append(*deltas, walDelta{op: wal.OpInsert, s: e.s, p: e.p, o: e.o})
					}
				}
			}
			continue
		}
		start := len(pendingPrimary)
		for _, e := range encs {
			entity, member := e.s, e.o
			if reverse {
				entity, member = e.o, e.s
			}
			fresh, rows := d.insertLocal(s, pendingPrimary, start, agg, &pendingSecondary, entity, e.p, member, colsFor(e.pred))
			pendingPrimary = rows
			if fresh {
				freshTotal++
				if deltas != nil {
					*deltas = append(*deltas, walDelta{op: wal.OpInsert, s: e.s, p: e.p, o: e.o})
				}
			}
		}
		newEntities++
	}

	// Batch-append the locally built rows; the entry index registers them.
	if len(pendingPrimary) > 0 {
		if _, err := d.primary.AppendRows(pendingPrimary); err != nil {
			abort.Store(true)
			return freshTotal, err
		}
	}
	if len(pendingSecondary) > 0 {
		if _, err := d.secondary.AppendRows(pendingSecondary); err != nil {
			abort.Store(true)
			return freshTotal, err
		}
	}

	// Fold the bucket's predicate-keyed effects and new entities into
	// the side.
	d.predMu.Lock()
	if len(agg.spillPreds) > 0 || len(agg.multiPreds) > 0 {
		d.mutablePredsLocked()
		for pid := range agg.spillPreds {
			d.spillPreds[pid] = true
		}
		for pid := range agg.multiPreds {
			d.multiPreds[pid] = true
		}
	}
	d.entities += newEntities
	d.predMu.Unlock()
	return freshTotal, nil
}

// insertLocal is the bulk twin of side.insert: it places
// (entity, pred) -> member into the entity's pending rows
// (rows[start:]), which live in worker-local memory and can therefore
// be filled in place. It returns whether the triple was new and the
// (possibly grown) pending row slice.
func (d *side) insertLocal(s *Store, rows []rel.Row, start int, agg *bulkAgg, secondary *[]rel.Row, entity, pid, member int64, cols []int) (bool, []rel.Row) {
	ent := rows[start:]

	// Already present? Then extend to (or within) a multi-value list.
	for _, row := range ent {
		for _, c := range cols {
			pc, vc := 2+2*c, 2+2*c+1
			if row[pc].K == rel.KindInt && row[pc].I == pid {
				cur := row[vc]
				if cur.K == rel.KindInt && dict.IsLid(cur.I) {
					lid := cur.I
					if agg.listed[[2]int64{lid, member}] {
						return false, rows // duplicate triple
					}
					agg.listed[[2]int64{lid, member}] = true
					*secondary = append(*secondary, rel.Row{rel.Int(lid), rel.Int(member)})
					return true, rows
				}
				if cur.K == rel.KindInt && cur.I == member {
					return false, rows // duplicate triple
				}
				// Convert single value to a list.
				agg.multiPreds[pid] = true
				lid := s.Dict.NextLid()
				agg.listed[[2]int64{lid, cur.I}] = true
				agg.listed[[2]int64{lid, member}] = true
				*secondary = append(*secondary, rel.Row{rel.Int(lid), cur}, rel.Row{rel.Int(lid), rel.Int(member)})
				row[vc] = rel.Int(lid)
				return true, rows
			}
		}
	}

	// Not present: find a free candidate column in an existing row.
	for _, row := range ent {
		for _, c := range cols {
			pc, vc := 2+2*c, 2+2*c+1
			if row[pc].IsNull() {
				row[pc] = rel.Int(pid)
				row[vc] = rel.Int(member)
				if ent[0][1] == rel.Int(1) {
					agg.spillPreds[pid] = true
				}
				return true, rows
			}
		}
	}

	// Spill: add a fresh row for the entity.
	spillFlag := int64(0)
	if len(ent) > 0 {
		spillFlag = 1
		agg.spillPreds[pid] = true
		if ent[0][1] != rel.Int(1) {
			for _, row := range ent {
				for c := 0; c < d.k; c++ {
					if pv := row[2+2*c]; pv.K == rel.KindInt {
						agg.spillPreds[pv.I] = true
					}
				}
				row[1] = rel.Int(1)
			}
		}
	}
	newRow := make(rel.Row, 2+2*d.k)
	newRow[0] = rel.Int(entity)
	newRow[1] = rel.Int(spillFlag)
	c := cols[0]
	newRow[2+2*c] = rel.Int(pid)
	newRow[2+2*c+1] = rel.Int(member)
	return true, append(rows, newRow)
}
