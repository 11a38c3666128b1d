package store

import (
	"io"
	"sync/atomic"

	"db2rdf/internal/rdf"
	"db2rdf/internal/wal"
)

// Bulk loading. Load, LoadTriples and WAL replay's runs of inserts all
// go through bulkLoadLocked, which
//
//  1. dictionary-encodes the triples on the calling goroutine in input
//     order, so ids come out exactly as Insert would mint them;
//  2. groups each side's triples by entity, in first-seen order — the
//     direct side by subject, the reverse side by object;
//  3. places the two sides concurrently, one goroutine each, entity by
//     entity with side.insert, the kernel Insert uses.
//
// Placing an entity's triples together writes its DPH/RPH rows and its
// DS/RS list members contiguously. The sides share no table; of the
// dictionary, the placement only mints list ids. The direct side draws
// them from a block reserved before placement starts, the reverse side
// from the dictionary, which nothing else advances meanwhile, so no id
// a load mints depends on how the two goroutines interleave.
//
// Duplicates are detected on the direct side exactly as in Insert, so
// only fresh triples are counted and logged: re-loading loaded data
// changes nothing.

// encTriple is a dictionary-encoded triple plus the predicate URI the
// column mapping is keyed by.
type encTriple struct {
	s, p, o int64
	pred    string
}

// Load reads N-Triples from r and bulk-loads them with LoadTriples,
// returning the number of triples read. A parse error loads nothing
// and interns no term.
func (s *Store) Load(r io.Reader) (int, error) {
	ts, err := rdf.NewReader(r).ReadAll()
	if err != nil {
		return 0, err
	}
	if err := s.LoadTriples(ts); err != nil {
		return 0, err
	}
	return len(ts), nil
}

// LoadTriples bulk-loads ts under one write lock. The epoch advances
// once iff any triple was new.
func (s *Store) LoadTriples(ts []rdf.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh, err := s.bulkLoadLocked(ts)
	if fresh > 0 {
		if perr := s.publishLocked(); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// bulkLoadLocked places ts on both sides, adds the number of fresh
// (non-duplicate) triples to the triple counter and returns it, so the
// caller can decide whether to publish. The caller holds the store
// write lock. On an error, whatever landed stays and is counted and
// logged: the caller publishes it.
func (s *Store) bulkLoadLocked(ts []rdf.Triple) (int, error) {
	if len(ts) == 0 {
		return 0, nil
	}
	enc := make([]encTriple, len(ts))
	for i, t := range ts {
		enc[i] = encTriple{s: s.Dict.Encode(t.S), p: s.Dict.Encode(t.P), o: s.Dict.Encode(t.O), pred: t.P.Value}
	}
	// A side creates at most one list per triple it places, so the
	// direct side's block never runs dry.
	d := s.direct
	d.lidNext = s.Dict.ReserveLids(len(enc))
	d.lidEnd = d.lidNext + int64(len(enc))
	defer func() { d.lidNext, d.lidEnd = 0, 0 }()
	// A failing side sets abort, so the other stops at its next
	// entity-group boundary instead of loading on.
	var abort atomic.Bool
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, rerr = s.reverse.bulkInsert(s, enc, true, &abort)
	}()
	fresh, err := s.direct.bulkInsert(s, enc, false, &abort)
	<-done
	s.triples += int64(fresh)
	if err == nil {
		err = rerr
	}
	return fresh, err
}

// bulkInsert places enc on the side, entity by entity in first-seen
// order, and returns the number of fresh (non-duplicate) triples. The
// direct side logs each fresh triple's WAL delta once its insert
// reports it fresh. abort is the load-wide failure flag: set on the first
// error, polled at entity-group boundaries.
func (d *side) bulkInsert(s *Store, enc []encTriple, reverse bool, abort *atomic.Bool) (int, error) {
	order := make([]int64, 0, len(enc)/2)
	byEntity := make(map[int64][]encTriple, len(enc)/2)
	for _, e := range enc {
		ent := e.s
		if reverse {
			ent = e.o
		}
		if _, seen := byEntity[ent]; !seen {
			order = append(order, ent)
		}
		byEntity[ent] = append(byEntity[ent], e)
	}

	freshTotal := 0
	var err error
groups:
	for gi, ent := range order {
		if gi&63 == 0 && abort.Load() {
			break // the other side failed; its error is reported
		}
		for _, e := range byEntity[ent] {
			member := e.o
			if reverse {
				member = e.s
			}
			var fresh, first bool
			fresh, first, err = d.insert(s, ent, e.p, member, e.pred)
			if first {
				d.entities++
			}
			if err != nil {
				abort.Store(true)
				break groups
			}
			if fresh {
				freshTotal++
				if !reverse {
					s.logDelta(wal.OpInsert, e.s, e.p, e.o)
				}
			}
		}
	}
	return freshTotal, err
}
