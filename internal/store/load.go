package store

import (
	"io"
	"sync/atomic"

	"db2rdf/internal/rdf"
	"db2rdf/internal/wal"
)

// Bulk loading, the one insert path. Insert, Load, LoadTriples, the
// SPARQL Update inserts (InsertTriplesLocked) and WAL replay all go
// through bulkLoadLocked, which
//
//  1. dictionary-encodes the triples on the calling goroutine in input
//     order;
//  2. groups each side's triples by entity, in first-seen order — the
//     direct side by subject, the reverse side by object — with a
//     counting sort of triple indices;
//  3. places the two sides concurrently, one goroutine each, entity by
//     entity with side.insert.
//
// Placing an entity's triples together writes its DPH/RPH rows and its
// DS/RS list members contiguously. The sides share no table and do not
// touch the dictionary: each mints its own list ids (side.newLid), so
// no id a load mints depends on how the two goroutines interleave.
//
// Duplicates are detected on the direct side, so only fresh triples
// are counted and logged: re-loading loaded data changes nothing.

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
	// Group by a counting sort of triple indices on the entity's
	// first-seen rank: rank[i] is triple i's group, and once the
	// scatter has run, group g is perm[end[g-1]:end[g]].
	ranks := make(map[int64]int32, len(enc)/2)
	rank := make([]int32, len(enc))
	var end []int32
	for i := range enc {
		ent := enc[i].s
		if reverse {
			ent = enc[i].o
		}
		r, seen := ranks[ent]
		if !seen {
			r = int32(len(end))
			ranks[ent] = r
			end = append(end, 0)
		}
		rank[i] = r
		end[r]++
	}
	var off int32
	for g, n := range end {
		end[g], off = off, off+n
	}
	perm := make([]int32, len(enc))
	for i, r := range rank {
		perm[end[r]] = int32(i)
		end[r]++
	}

	freshTotal := 0
	var err error
	start := int32(0)
groups:
	for g, stop := range end {
		if g&63 == 0 && abort.Load() {
			break // the other side failed; its error is reported
		}
		for _, i := range perm[start:stop] {
			e := &enc[i]
			ent, member := e.s, e.o
			if reverse {
				ent, member = e.o, e.s
			}
			var fresh, first bool
			fresh, first, err = d.insert(ent, e.p, member, e.pred)
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
		start = stop
	}
	return freshTotal, err
}
