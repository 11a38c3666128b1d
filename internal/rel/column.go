package rel

import (
	"math/bits"
	"sync/atomic"
)

// Columnar table storage (§2 of the paper motivates it): the DPH/RPH
// relations are wide and sparse by design — k (pred_i, val_i) pairs
// per row, most NULL for any given subject — so storing rows as
// []Cell would burn 8 bytes per absent predicate. A colVec instead keeps
// one int64 vector per column, split into fixed-size chunks of 1024
// rows. Each chunk holds a presence bitmap (1 bit per row; a cleared
// bit is NULL) and a densely packed slice of the present values, so a
// NULL costs one bit and access is rank(popcount) into the packed
// slice. Chunks that are entirely NULL are nil pointers: a column a
// subject never uses costs 8 bytes per 1024 rows.
//
// Each chunk also carries zone-map statistics — min/max over packed
// int values (maintained widening-only, so they are sound bounds even
// after updates) and the presence count (null count = chunk length −
// n) — letting the vectorized scan skip whole chunks for
// `col = <int literal>` conjuncts (eqFilter.skipChunk) before any
// per-row work.
//
// Every stored cell is a Cell, an int64 id or NULL (a cleared bit): the
// RDF schemas hold only dictionary ids, lids and flags. So a chunk's
// packed slice is the whole truth about its present cells and the zone
// map bounds all of them.
//
// Concurrency: colVec methods take no locks. The owning Table
// serializes writers with its mutex; readers either hold the table
// read lock briefly to capture the chunk directory, or read a
// published snapshot table (Table.Publish) whose chunks are immutable.
// Mutations are copy-on-write at chunk granularity: every chunk and
// chunk directory carries the writer generation (Table.wgen) that
// created it, and a writer touching a chunk from an older generation —
// one that a published snapshot may still reference — first clones it
// (deep-copying the bitmap and packed slice, since set() does in-place
// rank writes and memmoves into them). Chunks created in the
// current generation are private to the writer and mutate in place; a
// table that has never been published has wgen 0 and every mutation
// stays in place, so temp tables pay nothing for the machinery.
//
// Compression (DESIGN.md §10): at publish time every raw chunk is
// replaced — as a new object, never in place, since concurrent readers
// may hold the raw pointer — by a sealed copy. Sealed chunks store
// their values frame-of-reference bit-packed: ref is the minimum over
// the packed slice and each value is kept as a packedW-bit delta in
// packed, so a chunk of dictionary ids costs bits proportional to its
// value spread instead of 64 per value. Fully dense sealed chunks share
// the package-global all-ones presence bitmap (the degenerate run-length
// case; all-absent chunks are already nil). A sealed chunk is immutable:
// mutableChunk clones it back into raw form before any write, so the
// insert/delete/tombstone paths never see encoded data.

const (
	chunkShift = 10
	chunkRows  = 1 << chunkShift // rows per chunk
	chunkMask  = chunkRows - 1
	chunkWords = chunkRows / 64 // bitmap words per chunk
)

// maxPackWidth caps the bit width of the FoR encoding. A chunk whose
// value spread needs more bits keeps its raw slice when sealed: with
// word-aligned lanes a width above 32 fits at most one lane per word,
// which compresses nothing over the raw slice.
const maxPackWidth = 32

// packLanes returns the number of w-bit lanes per 64-bit word in the
// aligned packed layout. Lanes never straddle a word boundary; the
// top 64 mod w bits of each word are zero padding. The alignment
// trades a few padding bits for straddle-free extraction: scans and
// point reads touch exactly one word per value, and the scan kernels
// can test a whole word of lanes at once. Callers guarantee
// 1 <= w <= maxPackWidth.
func packLanes(w uint) uint { return 64 / w }

// packWords returns the packed-slice length for n values of width w.
func packWords(n int, w uint) int {
	if w == 0 {
		return 0
	}
	lpw := int(packLanes(w))
	return (n + lpw - 1) / lpw
}

// denseBits is the shared all-ones presence bitmap referenced by sealed
// fully-dense chunks. Only sealed (immutable) chunks may point at it;
// every mutable chunk owns a private bitmap array.
var denseBits = func() *[chunkWords]uint64 {
	var b [chunkWords]uint64
	for i := range b {
		b[i] = ^uint64(0)
	}
	return &b
}()

// sealedChunksTotal counts chunk seal events process-wide (monotonic;
// exported as the db2rdf_encoded_chunks_total metric).
var sealedChunksTotal atomic.Int64

// SealedChunksTotal returns the number of chunks sealed into encoded
// form since process start.
func SealedChunksTotal() int64 { return sealedChunksTotal.Load() }

// colChunk is 1024 rows of one column.
type colChunk struct {
	bits *[chunkWords]uint64 // presence bitmap; clear bit = NULL. Sealed dense chunks share denseBits.
	n    int                 // number of set bits (packed values)

	// ints holds the present values in row order — unless the chunk is
	// sealed with a non-nil packed, in which case ints is nil and the
	// values live bit-packed in packed.
	ints []int64

	// Sealed frame-of-reference representation: with lpw = 64/packedW
	// lanes per word, value k is ref + the packedW-bit field at bit
	// (k mod lpw)*packedW of packed[k/lpw]. nil packed on a sealed chunk
	// means the values stayed raw (spread wider than maxPackWidth).
	packed []uint64
	ref    int64

	// Zone map over the present values: sound (possibly loose) bounds,
	// widened on write, never narrowed. Valid only when zoneInit.
	min, max int64

	// gen is the writer generation (Table.wgen) that created or cloned
	// this chunk. A writer may only mutate chunks of the current
	// generation; older chunks are shared with published snapshots.
	gen uint64

	packedW  uint8
	zoneInit bool
	// sealed marks the chunk immutable (published in encoded form).
	// mutableChunk clones a sealed chunk back to raw before mutation
	// even when its generation matches the writer's.
	sealed bool
}

// newBits allocates a private presence bitmap.
func newBits() *[chunkWords]uint64 { return new([chunkWords]uint64) }

// colVec is one column of a table.
type colVec struct {
	chunks []*colChunk // nil entry = all-NULL chunk
	sgen   uint64      // generation that owns the chunks slice (slot stores require sgen == wgen)
}

// clone deep-copies the chunk for mutation in generation wgen,
// decoding a sealed chunk back into raw form. The bitmap and packed
// slice must be copied, not shared: set() memmoves and rank-writes into
// them in place, which would corrupt the snapshot's view of the shared
// backing arrays (and a sealed dense chunk's bitmap is the shared
// global).
func (c *colChunk) clone(wgen uint64) *colChunk {
	nc := &colChunk{
		bits:     newBits(),
		n:        c.n,
		min:      c.min,
		max:      c.max,
		zoneInit: c.zoneInit,
		gen:      wgen,
	}
	*nc.bits = *c.bits
	if c.packed != nil {
		nc.ints = make([]int64, c.n, c.n+1)
		c.decodeIntsInto(nc.ints)
	} else if c.ints != nil {
		nc.ints = append(make([]int64, 0, len(c.ints)+1), c.ints...)
	}
	return nc
}

// seal returns an immutable encoded copy of the chunk for publication:
// the values are frame-of-reference bit-packed (reference = minimum
// over the packed slice, so every delta is non-negative) and a fully
// dense presence bitmap is replaced by the shared global. The receiver
// is left untouched — concurrent readers may still hold it.
func (c *colChunk) seal(gen uint64) *colChunk {
	nc := &colChunk{
		n:        c.n,
		min:      c.min,
		max:      c.max,
		zoneInit: c.zoneInit,
		gen:      gen,
		sealed:   true,
	}
	if c.n == chunkRows {
		nc.bits = denseBits
	} else {
		nc.bits = c.bits
	}
	sealedChunksTotal.Add(1)
	if len(c.ints) == 0 {
		nc.ints = c.ints
		return nc
	}
	ref, maxv := c.ints[0], c.ints[0]
	for _, x := range c.ints[1:] {
		if x < ref {
			ref = x
		}
		if x > maxv {
			maxv = x
		}
	}
	w := uint(bits.Len64(uint64(maxv) - uint64(ref)))
	if w > maxPackWidth {
		nc.ints = c.ints
		return nc
	}
	// Widen by one bit when that changes no word count. No scan kernel
	// needs the spare top bit any more (the scan vectorizes equality
	// alone), but the widening costs no bytes, and dropping it would
	// change the packed words every snapshot stores and that
	// TestSnapshotEncodingUnchanged pins.
	if w > 0 && w+1 <= maxPackWidth && packLanes(w+1) == packLanes(w) {
		w++
	}
	nc.ref = ref
	nc.packedW = uint8(w)
	nc.packed = packInts(c.ints, ref, w)
	return nc
}

// packInts bit-packs vals-ref into word-aligned w-bit lanes. Every
// delta fits in w bits by construction. The w == 0 result is a
// non-nil empty slice: non-nil packed is what marks a chunk encoded.
func packInts(vals []int64, ref int64, w uint) []uint64 {
	out := make([]uint64, packWords(len(vals), w))
	if w == 0 {
		return out
	}
	lpw := packLanes(w)
	wi, s := 0, uint(0)
	for _, x := range vals {
		out[wi] |= (uint64(x) - uint64(ref)) << s
		s += w
		if s >= lpw*w {
			wi++
			s = 0
		}
	}
	return out
}

// intAt returns the packed int value at rank k, decoding the
// frame-of-reference bit-packed form on encoded chunks. O(1): a value
// occupies one aligned lane in one word.
func (c *colChunk) intAt(k int) int64 {
	if c.packed == nil {
		return c.ints[k]
	}
	w := uint(c.packedW)
	if w == 0 {
		return c.ref
	}
	lpw := packLanes(w)
	q := uint(k) / lpw
	s := (uint(k) - q*lpw) * w
	return c.ref + int64(c.packed[q]>>s&(uint64(1)<<w-1))
}

// decodeIntsInto materializes the chunk's int values (raw or packed)
// into dst, which must have length c.n.
func (c *colChunk) decodeIntsInto(dst []int64) {
	if c.packed == nil {
		copy(dst, c.ints)
		return
	}
	w := uint(c.packedW)
	if w == 0 {
		for k := range dst {
			dst[k] = c.ref
		}
		return
	}
	lpw := int(packLanes(w))
	mask := uint64(1)<<w - 1
	k := 0
	for wi := 0; k < len(dst); wi++ {
		word := c.packed[wi]
		lanes := lpw
		if rest := len(dst) - k; rest < lanes {
			lanes = rest
		}
		for j := 0; j < lanes; j++ {
			dst[k] = c.ref + int64(word&mask)
			word >>= w
			k++
		}
	}
}

// mutableDir makes the chunk directory writable in generation wgen.
// Published snapshots capture the directory as a len-capped slice, so
// appends past the captured length are invisible to them — but a slot
// store (chunks[ci] = x) lands in the shared backing array and must be
// preceded by this copy.
func (v *colVec) mutableDir(wgen uint64) {
	if v.sgen != wgen {
		v.chunks = append([]*colChunk(nil), v.chunks...)
		v.sgen = wgen
	}
}

// mutableChunk returns chunk ci ready for mutation in generation wgen,
// creating or cloning it (and COW-ing the directory slot) as needed.
// Sealed chunks are cloned even at the current generation: their
// encoded form (and possibly shared bitmap) is immutable by contract.
func (v *colVec) mutableChunk(wgen uint64, ci int) *colChunk {
	ck := v.chunks[ci]
	switch {
	case ck == nil:
		ck = &colChunk{bits: newBits(), gen: wgen}
	case ck.gen != wgen || ck.sealed:
		ck = ck.clone(wgen)
	default:
		return ck
	}
	v.mutableDir(wgen)
	v.chunks[ci] = ck
	return ck
}

// has reports whether the row at in-chunk offset off is present.
func (c *colChunk) has(off int) bool {
	return c.bits[off>>6]>>(uint(off)&63)&1 == 1
}

// rank counts present rows strictly before in-chunk offset off — the
// packed-slice position of the value at off (when present).
func (c *colChunk) rank(off int) int {
	w := off >> 6
	r := bits.OnesCount64(c.bits[w] & (1<<(uint(off)&63) - 1))
	for i := 0; i < w; i++ {
		r += bits.OnesCount64(c.bits[i])
	}
	return r
}

// widen grows the chunk's int zone map to cover x.
func (c *colChunk) widen(x int64) {
	if !c.zoneInit {
		c.min, c.max, c.zoneInit = x, x, true
		return
	}
	if x < c.min {
		c.min = x
	}
	if x > c.max {
		c.max = x
	}
}

// grow extends the chunk directory to cover row index i-1 (i rows).
func (v *colVec) grow(i int) {
	need := (i + chunkMask) >> chunkShift
	for len(v.chunks) < need {
		v.chunks = append(v.chunks, nil)
	}
}

// appendVal writes val at row i, which must be the next unwritten row
// (append order). Appending within a chunk always lands past every set
// bit, so the packed insert is a plain append. wgen is the owning
// table's writer generation (COW discipline; see the header comment).
func (v *colVec) appendVal(wgen uint64, i int, val Cell) {
	v.grow(i + 1)
	if val.IsNull() {
		return
	}
	ck := v.mutableChunk(wgen, i>>chunkShift)
	off := i & chunkMask
	ck.bits[off>>6] |= 1 << (uint(off) & 63)
	ck.n++
	ck.widen(val.I)
	ck.ints = append(ck.ints, val.I)
}

// get returns the cell at row i (NullCell when absent). Lock-free;
// see the concurrency note at the top of the file.
func (v *colVec) get(i int) Cell {
	ck := v.chunkOf(i >> chunkShift)
	off := i & chunkMask
	if ck == nil || !ck.has(off) {
		return NullCell
	}
	return Cell{I: ck.intAt(ck.rank(off))}
}

// set replaces the cell at row i with val, handling NULL↔value
// transitions with a packed insert/delete at the row's rank. The
// memmove is bounded by the chunk's packed size (≤1024 values). wgen is
// the owning table's writer generation (COW discipline).
func (v *colVec) set(wgen uint64, i int, val Cell) {
	v.grow(i + 1)
	ci := i >> chunkShift
	off := i & chunkMask
	if ck := v.chunks[ci]; val.IsNull() && (ck == nil || !ck.has(off)) {
		// NULL→NULL no-op: don't clone a shared chunk for nothing.
		return
	}
	ck := v.mutableChunk(wgen, ci)
	r := ck.rank(off)
	present := ck.has(off)
	switch {
	case val.IsNull():
		ck.ints = append(ck.ints[:r], ck.ints[r+1:]...)
		ck.bits[off>>6] &^= 1 << (uint(off) & 63)
		ck.n--
		return
	case !present:
		ck.ints = append(ck.ints, 0)
		copy(ck.ints[r+1:], ck.ints[r:])
		ck.bits[off>>6] |= 1 << (uint(off) & 63)
		ck.n++
	}
	ck.widen(val.I)
	ck.ints[r] = val.I
}

// chunkOf returns chunk ci, or nil when the chunk is all-NULL (or past
// the directory, which only happens on an empty vector).
func (v *colVec) chunkOf(ci int) *colChunk {
	if ci >= len(v.chunks) {
		return nil
	}
	return v.chunks[ci]
}

// gatherChunk materializes the full chunk ci into column colPos of
// cells, rows width cells apart, walking set bits in order with a
// running packed cursor — the dense fast path used when a scan selects
// an entire chunk. Absent rows are left untouched (the caller's cells
// start NULL).
func (v *colVec) gatherChunk(ci int, cells []Cell, width, colPos int) {
	ck := v.chunkOf(ci)
	if ck == nil {
		return
	}
	k := 0
	for w := 0; w < chunkWords; w++ {
		word := ck.bits[w]
		for word != 0 {
			off := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			cells[off*width+colPos] = Cell{I: ck.intAt(k)}
			k++
		}
	}
}
