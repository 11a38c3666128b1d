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

	"db2rdf/internal/rdf"
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
//     side, each placing its triples with side.insert, the same kernel
//     Insert uses. A worker reads only the entry and lid postings of
//     entities its bucket owns, and elm postings, which other workers
//     only append to past what it read; the tables lock each probe,
//     cell write and append, and predicate-keyed state goes through the
//     side's predMu.
//
// The speed-up over Load is parallelism across entity-disjoint buckets.
// A bucket is placed entity by entity in first-seen order, which keeps
// each entity's rows and list members contiguous in the tables.
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
// lock.
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

// bulkInsert places one bucket's triples on the side, entity by entity
// in first-seen order, and returns the number of fresh (non-duplicate)
// triples. Each fresh triple's WAL delta is captured once its insert
// reports it fresh. The bucket's new entities are folded into the
// side's count under predMu, also when a later triple fails: whatever
// landed is about to be published. abort is the load-wide failure flag:
// set on the first error, polled at entity-group boundaries so sibling
// buckets stop early instead of completing a doomed load.
func (d *side) bulkInsert(s *Store, bucket []encTriple, reverse bool, abort *atomic.Bool, deltas *[]walDelta) (int, error) {
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

	freshTotal, newEntities := 0, 0
	var err error
groups:
	for gi, ent := range order {
		if gi&63 == 0 && abort.Load() {
			break // a sibling bucket failed; its error is reported
		}
		for _, e := range byEntity[ent] {
			member := e.o
			if reverse {
				member = e.s
			}
			var fresh, first bool
			fresh, first, err = d.insert(s, ent, e.p, member, e.pred)
			if first {
				newEntities++
			}
			if err != nil {
				abort.Store(true)
				break groups
			}
			if fresh {
				freshTotal++
				if deltas != nil {
					*deltas = append(*deltas, walDelta{op: wal.OpInsert, s: e.s, p: e.p, o: e.o})
				}
			}
		}
	}
	d.predMu.Lock()
	d.entities += newEntities
	d.predMu.Unlock()
	return freshTotal, err
}
