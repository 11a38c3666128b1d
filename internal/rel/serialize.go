package rel

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"db2rdf/internal/binenc"
)

// Columnar snapshot serialization (DESIGN.md §9). A table's chunked
// column vectors are already a near-ideal on-disk format: EncodeSnapshot
// emits the presence bitmaps, rank-packed value slices, zone maps and
// tombstone bitmaps directly, and DecodeSnapshot rebuilds them into an
// empty table. Values are varint-encoded (the RDF schemas store
// dictionary ids, which are small).
//
// Every chunk payload ends with a count of out-of-line cells. Storage
// holds int64 ids only, so the encoder always writes 0 and the decoder
// rejects anything else; the field keeps the byte layout of snapshots
// written when columns could hold other kinds.
//
// Dead-cell reclamation: rows tombstoned since the last compaction may
// still hold their cell values in the packed vectors ("dirty" dead
// cells). The encoder masks them out — the emitted presence bitmaps
// clear every tombstoned row's bit, the dead values are dropped from
// the packed slices, and the zone maps are recomputed over the
// surviving values — while the tombstone bitmaps themselves are
// preserved so physical row indices stay stable and a cleared cell
// never resurfaces as a live NULL. A decoded table is therefore
// equivalent to the source table with every chunk fully compacted, and
// delete-heavy snapshots shrink accordingly.
//
// Chunk payloads are marker-tagged (chunkAbsent..chunkDensePacked): a
// sealed bit-packed chunk with no dead cells writes its packed words
// verbatim (no per-value varint work on either side, and the decoder
// rebuilds the sealed form directly), a fully dense presence bitmap is
// elided entirely (the decoder shares the global denseBits), and
// everything else falls back to the raw bitmap+values layout.
//
// The format carries no checksums of its own: the store-level snapshot
// file wraps every table section in a whole-file CRC32C, so the
// decoder's bounds checks only need to guarantee that arbitrary bytes
// never panic or over-allocate, not that corruption goes undetected.

// Chunk payload markers.
const (
	chunkAbsent      = 0 // nil / all-NULL / fully dead chunk
	chunkRaw         = 1 // presence bitmap + raw values
	chunkDenseRaw    = 2 // dense (bitmap elided) + raw values
	chunkPacked      = 3 // presence bitmap + FoR bit-packed ints
	chunkDensePacked = 4 // dense + FoR bit-packed ints
)

// appendTrailer emits what every chunk payload ends with: the zone map
// and the out-of-line cell count, always 0.
func appendTrailer(buf []byte, init bool, min, max int64) []byte {
	z := byte(0)
	if init {
		z = 1
	}
	buf = append(buf, z)
	buf = binary.AppendVarint(buf, min)
	buf = binary.AppendVarint(buf, max)
	return append(buf, 0)
}

// EncodeSnapshot appends the table's serialized contents to buf and
// returns the extended slice. It is intended for frozen (published)
// tables but takes the read lock so it is safe on any table with no
// concurrent writers.
func (t *Table) EncodeSnapshot(buf []byte) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	buf = binary.AppendUvarint(buf, uint64(t.nrows))
	buf = binary.AppendUvarint(buf, uint64(len(t.cols)))
	// Tombstone bitmaps (bits only; counts are recomputed on decode).
	buf = binary.AppendUvarint(buf, uint64(len(t.tomb)))
	for _, tc := range t.tomb {
		if tc == nil || tc.dead == 0 {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		for _, w := range tc.bits {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	for _, col := range t.cols {
		buf = binary.AppendUvarint(buf, uint64(len(col.chunks)))
		for ci, ck := range col.chunks {
			buf = t.encodeChunkLocked(buf, ck, ci)
		}
	}
	return buf
}

// encodeChunkLocked emits one column chunk with the chunk's tombstoned
// cells masked out.
func (t *Table) encodeChunkLocked(buf []byte, ck *colChunk, ci int) []byte {
	if ck == nil || ck.n == 0 {
		return append(buf, 0)
	}
	var tombBits *[chunkWords]uint64
	if ci < len(t.tomb) && t.tomb[ci] != nil && t.tomb[ci].dead > 0 {
		tombBits = &t.tomb[ci].bits
	}
	var clean [chunkWords]uint64
	live := 0
	for w := range ck.bits {
		clean[w] = ck.bits[w]
		if tombBits != nil {
			clean[w] &^= tombBits[w]
		}
		live += bits.OnesCount64(clean[w])
	}
	if live == 0 {
		return append(buf, 0) // every present cell was dead: all-NULL chunk
	}
	dense := live == chunkRows
	// A bit-packed chunk with no dead cells round-trips verbatim: the
	// packed words are copied as-is and the decoder rebuilds the same
	// sealed chunk, so neither side pays per-value varint work.
	if ck.packed != nil && live == ck.n {
		if dense {
			buf = append(buf, chunkDensePacked)
		} else {
			buf = append(buf, chunkPacked)
			for _, w := range clean {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
		buf = binary.AppendVarint(buf, ck.ref)
		buf = append(buf, ck.packedW)
		buf = binary.AppendUvarint(buf, uint64(len(ck.packed)))
		for _, w := range ck.packed {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		return appendTrailer(buf, ck.zoneInit, ck.min, ck.max)
	}
	if dense {
		buf = append(buf, chunkDenseRaw)
	} else {
		buf = append(buf, chunkRaw)
		for _, w := range clean {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	// Walk the ORIGINAL presence bits in order, advancing the packed
	// cursor, and emit only surviving cells. Zone bounds are recomputed
	// over the emitted values.
	var zmin, zmax int64
	zoneInit := false
	k := 0
	for w := 0; w < chunkWords; w++ {
		word := ck.bits[w]
		for word != 0 {
			off := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := k
			k++
			if tombBits != nil && tombBits[off>>6]>>(uint(off)&63)&1 == 1 {
				continue
			}
			x := ck.intAt(r)
			buf = binary.AppendVarint(buf, x)
			if !zoneInit {
				zmin, zmax, zoneInit = x, x, true
			} else if x < zmin {
				zmin = x
			} else if x > zmax {
				zmax = x
			}
		}
	}
	return appendTrailer(buf, zoneInit, zmin, zmax)
}

// DecodeSnapshot rebuilds the table's contents from data produced by
// EncodeSnapshot. The table must be empty and have the same schema
// width as the encoder's. Indexes are not rebuilt; callers
// re-run CreateIndex afterwards. Arbitrary (corrupt) input yields an
// error, never a panic; on error the table is reset to empty.
func (t *Table) DecodeSnapshot(data []byte) error {
	t.mu.Lock()
	if t.nrows != 0 {
		t.mu.Unlock()
		return fmt.Errorf("rel: table %s: snapshot decode into non-empty table", t.Name)
	}
	err := t.decodeSnapshotLocked(data)
	t.mu.Unlock()
	if err != nil {
		t.Clear()
		return err
	}
	return nil
}

func (t *Table) decodeSnapshotLocked(data []byte) error {
	c := binenc.NewReader(data)
	nrows := c.Uvarint()
	ncols := c.Uvarint()
	if c.Err() != nil {
		return decodeErr(c)
	}
	if ncols != uint64(len(t.Schema)) {
		return fmt.Errorf("rel: table %s: snapshot has %d columns, schema has %d", t.Name, ncols, len(t.Schema))
	}
	maxChunks := (nrows + chunkMask) >> chunkShift
	// Each encoded chunk consumes at least one byte, so a valid chunk
	// count can never exceed the remaining input. This bounds every
	// allocation below by the input size.
	ntomb := c.Uvarint()
	if ntomb > maxChunks || ntomb > uint64(c.Remaining()) {
		return fmt.Errorf("rel: table %s: bad tombstone chunk count %d", t.Name, ntomb)
	}
	var tomb []*tombChunk
	dead := 0
	for i := uint64(0); i < ntomb && c.Err() == nil; i++ {
		if c.U8() == 0 {
			tomb = append(tomb, nil)
			continue
		}
		tc := &tombChunk{}
		for w := 0; w < chunkWords; w++ {
			tc.bits[w] = c.U64()
			tc.dead += bits.OnesCount64(tc.bits[w])
		}
		dead += tc.dead
		tomb = append(tomb, tc)
	}
	cols := make([]*colVec, len(t.Schema))
	for j := range t.Schema {
		v := &colVec{}
		nchunks := c.Uvarint()
		if nchunks > maxChunks || nchunks > uint64(c.Remaining()) {
			return fmt.Errorf("rel: table %s: bad chunk count %d", t.Name, nchunks)
		}
		for ci := uint64(0); ci < nchunks && c.Err() == nil; ci++ {
			v.chunks = append(v.chunks, decodeChunk(c))
		}
		if c.Err() != nil {
			return decodeErr(c)
		}
		cols[j] = v
	}
	if c.Err() != nil {
		return decodeErr(c)
	}
	if c.Remaining() != 0 {
		return fmt.Errorf("rel: table %s: %d trailing bytes after snapshot", t.Name, c.Remaining())
	}
	if dead > int(nrows) {
		return fmt.Errorf("rel: table %s: %d tombstoned rows exceed %d total", t.Name, dead, nrows)
	}
	t.nrows = int(nrows)
	t.cols = cols
	t.tomb = tomb
	t.dead = dead
	return nil
}

// decodeErr prefixes the reader's first error for DecodeSnapshot.
func decodeErr(c *binenc.Reader) error {
	return fmt.Errorf("rel: snapshot decode: %w", c.Err())
}

// decodeChunk reads one column chunk, recording any error in c (the
// chunk is then nil).
func decodeChunk(c *binenc.Reader) *colChunk {
	marker := c.U8()
	if marker == chunkAbsent {
		return nil
	}
	if marker > chunkDensePacked {
		c.Fail("bad chunk marker %d", marker)
		return nil
	}
	dense := marker == chunkDenseRaw || marker == chunkDensePacked
	packed := marker == chunkPacked || marker == chunkDensePacked
	ck := &colChunk{}
	if dense {
		// Sharing the global all-ones bitmap requires immutability:
		// sealed makes the first writer mutation clone the chunk
		// (mutableChunk), exactly as for a publish-sealed chunk.
		ck.bits = denseBits
		ck.n = chunkRows
		ck.sealed = true
	} else {
		ck.bits = newBits()
		for w := 0; w < chunkWords; w++ {
			ck.bits[w] = c.U64()
			ck.n += bits.OnesCount64(ck.bits[w])
		}
	}
	if c.Err() != nil {
		return nil
	}
	if packed {
		ck.sealed = true
		ck.ref = c.Varint()
		w := uint(c.U8())
		nwords := c.Uvarint()
		// The word count is fully determined by n and w, which bounds
		// the allocation at chunkRows words.
		if w > maxPackWidth || nwords != uint64(packWords(ck.n, w)) {
			c.Fail("bad packed chunk (width %d, %d words)", w, nwords)
			return nil
		}
		ck.packedW = uint8(w)
		ck.packed = make([]uint64, nwords)
		for i := range ck.packed {
			ck.packed[i] = c.U64()
		}
	} else {
		ck.ints = make([]int64, ck.n)
		for k := range ck.ints {
			ck.ints[k] = c.Varint()
		}
	}
	ck.zoneInit = c.U8() == 1
	ck.min = c.Varint()
	ck.max = c.Varint()
	if nexc := c.Uvarint(); nexc != 0 {
		c.Fail("chunk carries %d out-of-line cells; columns store int64 ids only", nexc)
	}
	if c.Err() != nil {
		return nil
	}
	return ck
}
