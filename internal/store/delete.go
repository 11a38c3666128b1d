package store

import (
	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/wal"
)

// Triple deletion. Removal is the mirror of side.insert: the entity's
// rows come from the entry index, the (entity, predicate) cell is
// located through the mapping's candidate columns (a pair lives in
// exactly one primary cell, so the probe stops at the first hit), and
// the value is removed from whichever shape holds it — a direct cell,
// or a DS/RS multi-value list, whose row is found through the lid and
// elm indexes. A list left with one member collapses back to a direct
// value read from its last lid posting; a row left with no predicates
// is tombstoned (rel.Table.DeleteRow), which also unindexes it, so the
// entity's rows are again exactly its entry postings. Every removed
// cell and collapsed list decrements the side's marker counts, so the
// spill/multi markers, like the entity and triple counts, are exact
// after every delete. Dictionary entries are retained: ids stay
// decodable, so cached plans that embed them remain valid.

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

// InsertTriplesLocked places ts with the write lock already held
// (taken via Lock) through the bulk loader, returning the number of
// fresh (non-duplicate) triples. The caller is responsible for
// publishing (PublishLocked) when anything changed.
func (s *Store) InsertTriplesLocked(ts []rdf.Triple) (fresh int, err error) {
	return s.bulkLoadLocked(ts)
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
	for _, t := range s.tables() {
		t.Clear()
	}
	s.direct.resetState()
	s.reverse.resetState()
	s.triples = 0
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
	s.logDelta(wal.OpDelete, sid, pid, oid)
	return true, nil
}

// remove deletes (entity, pid) -> member from one side, reporting
// whether the triple was stored there.
func (d *side) remove(entity, pid, member int64, predURI string) (bool, error) {
	cols := d.mapping.Columns(predURI)
	for _, r := range d.rows(entity) {
		ri := int(r)
		for _, c := range cols {
			pc, vc := 2+2*c, 2+2*c+1
			pv := d.primary.CellAt(ri, pc)
			if pv.IsNull() || pv.I != pid {
				continue
			}
			// The unique cell for (entity, pid) across all rows.
			cur := d.primary.CellAt(ri, vc)
			if !cur.IsNull() && dict.IsLid(cur.I) {
				row := d.listRow(cur.I, member)
				if row < 0 {
					return false, nil // not in the list
				}
				if err := d.secondary.DeleteRow(row); err != nil {
					return true, err
				}
				rest, _ := d.secondary.IndexLookup("lid", cur.I)
				switch len(rest) {
				case 0:
					// Defensive: lists always hold ≥2 members, but an
					// emptied list must still clear the cell.
					d.count(&d.multiPreds, d.multiCells, pid, -1)
					return true, d.clearCell(entity, pid, ri, pc, vc)
				case 1:
					// Collapse the one-element list to a direct value,
					// mirroring the single→list conversion on insert.
					last := int(rest[0])
					kept := d.secondary.CellAt(last, 1)
					if err := d.secondary.DeleteRow(last); err != nil {
						return true, err
					}
					if err := d.primary.SetCell(ri, vc, kept); err != nil {
						return true, err
					}
					d.count(&d.multiPreds, d.multiCells, pid, -1)
				}
				return true, nil
			}
			if !cur.IsNull() && cur.I == member {
				return true, d.clearCell(entity, pid, ri, pc, vc)
			}
			return false, nil // predicate present with a different value
		}
	}
	return false, nil
}

// clearCell nulls the (pid, val) cell pair at row ri; a row left with
// no predicates at all is deleted, and an entity left with no rows
// leaves the entity count. A cell of a spilled entity leaves pid's
// spill count: every row of such an entity carries spill = 1.
func (d *side) clearCell(entity, pid int64, ri, pc, vc int) error {
	spilled := d.primary.CellAt(ri, 1) == rel.ID(1)
	if err := d.primary.SetCell(ri, pc, rel.NullCell); err != nil {
		return err
	}
	if err := d.primary.SetCell(ri, vc, rel.NullCell); err != nil {
		return err
	}
	if spilled {
		d.count(&d.spillPreds, d.spillCells, pid, -1)
	}
	for c := 0; c < d.k; c++ {
		if !d.primary.CellAt(ri, 2+2*c).IsNull() {
			return nil
		}
	}
	if err := d.primary.DeleteRow(ri); err != nil {
		return err
	}
	if len(d.rows(entity)) == 0 {
		d.entities--
	}
	return nil
}

// resetState reinitializes a side's loading state (Clear support).
func (d *side) resetState() {
	d.entities = 0
	d.predMu.Lock()
	// Fresh maps, so snapshot-captured copies are left untouched.
	d.spillPreds = make(map[int64]bool)
	d.multiPreds = make(map[int64]bool)
	d.predShared = false
	d.spillCells = make(map[int64]int)
	d.multiCells = make(map[int64]int)
	d.predMu.Unlock()
}
