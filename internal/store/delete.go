package store

import (
	"fmt"

	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/wal"
)

// Triple deletion. Removal is the mirror of side.insert: the (entity,
// predicate) cell is located through the mapping's candidate columns
// (the invariant that a pair lives in exactly one primary cell makes
// the probe terminate at the first hit), and the value is removed from
// whichever shape it is stored in — a direct cell, or a DS/RS
// multi-value list. A two-element list collapses back to a direct
// value; a row left with no predicates is tombstoned out of the
// primary table (rel.Table.DeleteRow) and unregistered from the
// entity's row list, so subsequent inserts rebuild it from scratch.
//
// Conservative state: spillPreds, multiPreds and spillCount are NOT
// decremented on delete. They only feed translator merge decisions and
// DS/RS join insertion, where a stale-true answer costs an unnecessary
// LEFT OUTER JOIN (COALESCE falls back to the direct value) or a
// skipped merge — never a wrong result. Dictionary entries are likewise
// retained; ids stay decodable so cached plans that embed them remain
// valid. The staleness is bounded: a publish that compacts chunks
// recomputes the markers exactly (recomputeMarkersLocked, triggered
// from installLocked), matching what snapshot recovery would rebuild.

// Delete removes one triple, reporting whether it was present. The
// epoch advances only when a triple was actually removed.
func (s *Store) Delete(t rdf.Triple) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed, err := s.deleteLocked(t)
	if removed {
		if perr := s.publishLocked(); perr != nil && err == nil {
			err = perr
		}
	}
	return removed, err
}

// DeleteTriples removes a slice of triples under one write lock,
// returning the number actually removed. The epoch advances once if
// any removal happened, even when a later triple errors.
func (s *Store) DeleteTriples(ts []rdf.Triple) (n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		if n > 0 {
			if perr := s.publishLocked(); perr != nil && err == nil {
				err = perr
			}
		}
	}()
	for _, t := range ts {
		removed, derr := s.deleteLocked(t)
		if removed {
			n++
		}
		if derr != nil {
			return n, derr
		}
	}
	return n, nil
}

// Clear removes every triple, returning the count removed. Table
// shells, index definitions, mappings and the dictionary survive; the
// epoch advances only when the store was non-empty.
func (s *Store) Clear() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.ClearLocked()
	if n > 0 {
		_ = s.publishLocked() // memory state is cleared regardless of WAL health
	}
	return n
}

// Lock takes the store-wide write lock. It is exported for the SPARQL
// Update path in package db2rdf, which must evaluate a WHERE clause
// and apply its delta under one exclusive section; pair with Unlock.
func (s *Store) Lock() { s.mu.Lock() }

// Unlock releases the store-wide write lock.
func (s *Store) Unlock() { s.mu.Unlock() }

// InsertLocked adds one triple with the write lock already held
// (taken via Lock), reporting whether it was new. The caller is
// responsible for publishing (PublishLocked) when anything changed.
func (s *Store) InsertLocked(t rdf.Triple) (bool, error) {
	return s.insertLocked(t)
}

// DeleteLocked removes one triple with the write lock already held,
// reporting whether it was present. The caller is responsible for
// publishing (PublishLocked) when anything changed.
func (s *Store) DeleteLocked(t rdf.Triple) (bool, error) {
	return s.deleteLocked(t)
}

// ClearLocked is Clear with the write lock already held; it returns
// the number of triples removed and does not publish.
func (s *Store) ClearLocked() int {
	n := int(s.triples)
	for _, t := range []*rel.Table{s.dph, s.ds, s.rph, s.rs} {
		t.Clear()
	}
	s.direct.resetState()
	s.reverse.resetState()
	s.triples = 0
	s.markerDeletes = 0 // resetState made every marker exact again
	if n > 0 {
		// One clear op supersedes any deltas captured earlier in this
		// locked section; keeping them preserves replay order anyway.
		s.logDelta(wal.OpClear, 0, 0, 0)
	}
	return n
}

// deleteLocked removes one triple from both sides; caller holds the
// write lock. A term absent from the dictionary proves the triple was
// never stored.
func (s *Store) deleteLocked(t rdf.Triple) (bool, error) {
	sid, ok := s.Dict.Lookup(t.S)
	if !ok {
		return false, nil
	}
	pid, ok := s.Dict.Lookup(t.P)
	if !ok {
		return false, nil
	}
	oid, ok := s.Dict.Lookup(t.O)
	if !ok {
		return false, nil
	}
	removed, err := s.direct.remove(sid, pid, oid, t.P.Value)
	if err != nil || !removed {
		return removed, err
	}
	if _, err := s.reverse.remove(oid, pid, sid, t.P.Value); err != nil {
		return true, err
	}
	s.triples--
	s.markerDeletes++
	s.logDelta(wal.OpDelete, sid, pid, oid)
	return true, nil
}

// recomputeMarkersLocked rebuilds one side's spill/multi predicate
// markers and spill count exactly from the live registries — the same
// state side.rebuildLocked derives after a snapshot recovery. The
// entity-keyed registries (entityRows, spilled, lidSets) are maintained
// exactly across deletes, so only the predicate-keyed aggregates need
// the rescan. The caller holds the store write lock.
func (d *side) recomputeMarkersLocked() {
	spill := make(map[int64]bool)
	multi := make(map[int64]bool)
	spillCount := 0
	for _, sh := range d.shards {
		for entity, rows := range sh.entityRows {
			if len(rows) > 1 {
				spillCount += len(rows) - 1
			}
			spilled := sh.spilled[entity]
			for _, ri := range rows {
				for c := 0; c < d.k; c++ {
					pv := d.primary.CellAt(ri, 2+2*c)
					if pv.K != rel.KindInt {
						continue
					}
					if spilled {
						spill[pv.I] = true
					}
					if vv := d.primary.CellAt(ri, 2+2*c+1); vv.K == rel.KindInt && dict.IsLid(vv.I) {
						multi[pv.I] = true
					}
				}
			}
		}
	}
	d.predMu.Lock()
	// Fresh maps replace the (possibly snapshot-shared) old ones, so a
	// published snapshot's captured copies are never written.
	d.spillPreds, d.multiPreds, d.spillCount = spill, multi, spillCount
	d.predShared = false
	d.predMu.Unlock()
}

// remove deletes (entity, pid) -> member from one side, reporting
// whether the triple was stored there.
func (d *side) remove(entity, pid, member int64, predURI string) (bool, error) {
	cols := d.mapping.Columns(predURI)
	sh := d.shard(entity)
	rows := sh.entityRows[entity]
	for _, ri := range rows {
		for _, c := range cols {
			pc, vc := 2+2*c, 2+2*c+1
			pv := d.primary.CellAt(ri, pc)
			if pv.K != rel.KindInt || pv.I != pid {
				continue
			}
			// The unique cell for (entity, pid) across all rows.
			cur := d.primary.CellAt(ri, vc)
			if cur.K == rel.KindInt && dict.IsLid(cur.I) {
				lid := cur.I
				set := sh.lidSets[lid]
				if !set[member] {
					return false, nil // not in the list
				}
				delete(set, member)
				if err := d.removeSecondary(lid, member); err != nil {
					return true, err
				}
				if len(set) == 1 {
					// Collapse the one-element list to a direct value,
					// mirroring the single→list conversion on insert.
					var last int64
					for m := range set {
						last = m
					}
					if err := d.removeSecondary(lid, last); err != nil {
						return true, err
					}
					delete(sh.lidSets, lid)
					return true, d.primary.SetCell(ri, vc, rel.Int(last))
				}
				if len(set) == 0 {
					// Defensive: lists always hold ≥2 members, but an
					// empty set must still clear the cell.
					delete(sh.lidSets, lid)
					return true, d.clearCell(sh, entity, ri, pc, vc)
				}
				return true, nil
			}
			if cur.K == rel.KindInt && cur.I == member {
				return true, d.clearCell(sh, entity, ri, pc, vc)
			}
			return false, nil // predicate present with a different value
		}
	}
	return false, nil
}

// clearCell nulls the (pred, val) cell pair at row ri; a row left with
// no predicates at all is tombstoned and unregistered.
func (d *side) clearCell(sh *sideShard, entity int64, ri, pc, vc int) error {
	if err := d.primary.SetCell(ri, pc, rel.Null); err != nil {
		return err
	}
	if err := d.primary.SetCell(ri, vc, rel.Null); err != nil {
		return err
	}
	for c := 0; c < d.k; c++ {
		if !d.primary.CellAt(ri, 2+2*c).IsNull() {
			return nil
		}
	}
	if err := d.primary.DeleteRow(ri); err != nil {
		return err
	}
	rows := sh.entityRows[entity]
	kept := rows[:0]
	for _, r := range rows {
		if r != ri {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		delete(sh.entityRows, entity)
		delete(sh.spilled, entity)
	} else {
		sh.entityRows[entity] = kept
	}
	return nil
}

// removeSecondary deletes the (lid, member) row from the DS/RS table
// via the lid index.
func (d *side) removeSecondary(lid, member int64) error {
	ids, ok := d.secondary.IndexLookup("lid", rel.Int(lid))
	if !ok {
		return fmt.Errorf("store: table %s has no lid index", d.secondary.Name)
	}
	for _, id := range ids {
		if v := d.secondary.CellAt(int(id), 1); v.K == rel.KindInt && v.I == member {
			return d.secondary.DeleteRow(int(id))
		}
	}
	return nil
}

// resetState reinitializes a side's loading state (Clear support).
func (d *side) resetState() {
	for i := range d.shards {
		d.shards[i] = &sideShard{
			entityRows: make(map[int64][]int),
			lidSets:    make(map[int64]map[int64]bool),
			spilled:    make(map[int64]bool),
		}
	}
	d.predMu.Lock()
	// Fresh maps, so snapshot-captured copies are left untouched.
	d.spillPreds = make(map[int64]bool)
	d.multiPreds = make(map[int64]bool)
	d.spillCount = 0
	d.predShared = false
	d.predMu.Unlock()
}
