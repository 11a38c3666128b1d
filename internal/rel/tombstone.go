package rel

import (
	"fmt"
	"math/bits"
)

// Row deletion via per-chunk tombstone bitmaps. A deleted row keeps its
// physical index (so every row id handed out by AppendRow stays stable)
// but is marked dead in the owning chunk's tombstone bitmap and removed
// from every hash index immediately. Scans — the vectorized chunk
// pipeline (vecscan.go), Rows() and CreateIndex — filter dead rows out;
// index probes need no check at all, because a dead row's ids are gone
// from the posting lists before the delete returns.
//
// The bitmap is table-level rather than per colVec chunk: the DPH/RPH
// relations carry 2k+2 columns (66 on the K=32 default), and a row is
// dead in all of them or none, so duplicating the [16]uint64 bitmap per
// column would multiply its cost 66× for no information. The table
// bitmap is indexed by the same chunk coordinates (row>>chunkShift,
// row&chunkMask) the column chunks use, so the scan consults it in the
// same loop that walks the column chunks.
//
// Zone maps stay untouched by deletes: they are widen-only, so after a
// delete they still bound every live value (possibly loosely — the
// deleted min/max witness makes the range wider than the live data,
// never narrower). That keeps skipChunk sound without rescanning: a
// chunk whose only zone witnesses are tombstoned cannot prune live
// matches, because pruning only ever uses the bounds to prove absence.
// Compaction is the one place zone maps are recomputed, and only after
// the dead cells are physically cleared.
//
// Compaction: once a chunk accumulates tombCompactDead dead-but-dirty
// rows (dirty = cells still sitting in the packed vectors), the chunk
// is rewritten at the next Publish — every dead cell is cleared
// through colVec.set (packed delete + presence-bit clear), and the
// chunk's zone map is rebuilt over the surviving packed ints. Running
// compaction at publish time means it always operates on the writer's
// private copy-on-write chunks, never on data a snapshot still reads.
// Tombstone bits persist after compaction so cleared cells do not leak
// into IS NULL results; only the dirty counter resets.

// tombCompactDead is the per-chunk dead-row threshold that triggers
// compaction (a quarter of a chunk).
const tombCompactDead = chunkRows / 4

// tombChunk tracks the dead rows of one 1024-row chunk.
type tombChunk struct {
	bits  [chunkWords]uint64 // set bit = dead row
	dead  int                // dead rows in this chunk
	dirty int                // dead rows whose cells are still in the column chunks
	gen   uint64             // writer generation that owns this bitmap (COW)
}

// has reports whether the row at in-chunk offset off is dead.
func (tc *tombChunk) has(off int) bool {
	return tc.bits[off>>6]>>(uint(off)&63)&1 == 1
}

// deadLocked reports whether row i is tombstoned; the caller holds the
// table lock (either mode).
func (t *Table) deadLocked(i int) bool { return tombstoned(t.tomb, i) }

// tombstoned reports whether row i is dead in the tombstone directory.
func tombstoned(tomb []*tombChunk, i int) bool {
	ci := i >> chunkShift
	return ci < len(tomb) && tomb[ci] != nil && tomb[ci].has(i&chunkMask)
}

// LiveLen returns the number of live (non-deleted) rows.
func (t *Table) LiveLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows - t.dead
}

// DeadRows returns the number of tombstoned rows (for tests and
// diagnostics).
func (t *Table) DeadRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dead
}

// DeleteRow tombstones row i. The row id stays allocated (physical
// indices never shift), but the row is removed from every hash index
// immediately and excluded from all scans. Deleting an already-dead row
// is a no-op. Chunks that cross the dead-density threshold are
// compacted at the next Publish, on the writer's private copies.
func (t *Table) DeleteRow(i int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= t.nrows {
		return fmt.Errorf("rel: table %s: row %d out of range", t.Name, i)
	}
	ci, off := i>>chunkShift, i&chunkMask
	for len(t.tomb) <= ci {
		t.tomb = append(t.tomb, nil)
	}
	if tc := t.tomb[ci]; tc != nil && tc.has(off) {
		return nil
	}
	tc := t.mutableTombLocked(ci)
	// Unindex before the bit is set (the cell values are still intact).
	for _, idx := range t.indexes {
		idx.remove(t.cols[idx.col].get(i), int32(i))
	}
	tc.bits[off>>6] |= 1 << (uint(off) & 63)
	tc.dead++
	tc.dirty++
	t.dead++
	return nil
}

// mutableTombLocked returns tombstone chunk ci ready for mutation in
// the current generation, creating or cloning it (and COW-ing the
// tomb directory slot) as needed. The tomb slice must already cover ci.
func (t *Table) mutableTombLocked(ci int) *tombChunk {
	tc := t.tomb[ci]
	switch {
	case tc == nil:
		tc = &tombChunk{gen: t.wgen}
	case tc.gen != t.wgen:
		c := *tc
		c.gen = t.wgen
		tc = &c
	default:
		return tc
	}
	if t.tombGen != t.wgen {
		t.tomb = append([]*tombChunk(nil), t.tomb...)
		t.tombGen = t.wgen
	}
	t.tomb[ci] = tc
	return tc
}

// compactPendingLocked compacts every chunk whose dirty dead-cell
// count has crossed the threshold. Called by Publish before freezing,
// so the clears land on the writer's private chunk copies and the
// published invariant holds: no chunk carries tombCompactDead or more
// dirty cells. Caller holds the table write lock.
func (t *Table) compactPendingLocked() {
	for ci, tc := range t.tomb {
		if tc == nil || tc.dirty < tombCompactDead {
			continue
		}
		t.compactChunkLocked(ci, t.mutableTombLocked(ci))
		t.compactions++
	}
}

// compactChunkLocked clears every dirty dead cell of chunk ci out of
// the packed column vectors and rebuilds the columns' zone maps over
// the surviving values. The tombstone bits stay set (a cleared cell
// must not surface as a live NULL); only dirty resets.
func (t *Table) compactChunkLocked(ci int, tc *tombChunk) {
	base := ci << chunkShift
	for w := 0; w < chunkWords; w++ {
		word := tc.bits[w]
		for word != 0 {
			off := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			for _, col := range t.cols {
				col.set(t.wgen, base+off, NullCell)
			}
		}
	}
	tc.dirty = 0
	for _, col := range t.cols {
		ck := col.chunkOf(ci)
		// Only chunks the clears above actually touched (and therefore
		// cloned into the current generation) need a zone rebuild; an
		// untouched chunk may still be shared with a snapshot and its
		// bounds are unchanged anyway.
		// A sealed chunk (same-generation after a snapshot decode) was
		// not touched either — col.set clones sealed chunks into raw
		// form — and its ints slice is empty when bit-packed, so
		// rebuilding from it would wipe the zone map.
		if ck == nil || ck.gen != t.wgen || ck.sealed {
			continue
		}
		// Re-widen from scratch: the old bounds may be witnessed only by
		// cells just cleared.
		ck.zoneInit = false
		for _, x := range ck.ints {
			ck.widen(x)
		}
	}
}

// Compactions returns the number of chunk compactions the table has
// run at publish time (metrics).
func (t *Table) Compactions() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.compactions
}

// Clear removes every row, resetting the table to empty while keeping
// its schema and index definitions. Everything is replaced with fresh
// objects — a whole-table copy-on-write — so published snapshots keep
// reading the old column vectors and posting maps untouched.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nrows, t.dead = 0, 0
	t.tomb, t.tombGen = nil, t.wgen
	t.cols = make([]*colVec, len(t.Schema))
	for i := range t.cols {
		t.cols[i] = &colVec{sgen: t.wgen}
	}
	for _, idx := range t.indexes {
		idx.reset()
	}
}

// remove drops row id from the posting list of the stored cell v.
// Caller holds the table write lock.
func (x *hashIndex) remove(v Cell, id int32) {
	if !v.IsNull() {
		x.posts.remove(v.I, id)
	}
}

// dropID removes the first occurrence of id, preserving order (probe
// result determinism depends on posting-list order). The slice must be
// owned by the caller (postMap dirty lists are).
func dropID(ids []int32, id int32) []int32 {
	for k, v := range ids {
		if v == id {
			return append(ids[:k], ids[k+1:]...)
		}
	}
	return ids
}

// reset empties the index by allocating a fresh posting map, keeping
// its column binding. Sealed copies held by snapshots are untouched.
func (x *hashIndex) reset() { x.posts = &postMap{} }
