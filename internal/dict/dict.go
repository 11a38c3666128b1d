// Package dict implements the dictionary encoding layer shared by every
// relational RDF schema in this repository. RDF terms are interned to
// dense int64 ids. The DB2RDF store numbers its DS/RS list ids ("lid"s,
// the paper's lid:1, lid:2, ...) itself, from LidBase up, so a val_i
// column can hold either a term id or a lid without ambiguity.
//
// The id→term direction is stored front-coded: interned term keys
// (Term.Key canonical strings) are grouped into blocks of fcBlockSize,
// every key after a block's first is stored as (shared-prefix length
// with the block head, suffix), and the suffixes of a block live in one
// contiguous string. Term keys — IRIs above all — share long prefixes,
// so this cuts the resident id→term bytes severalfold while decoding a
// key stays two slices and at most one concatenation per decode.
// Decode parses the rebuilt key with rdf.TermFromKey, whose Terms alias
// the key's backing bytes, so no per-field copies are made either;
// View.AppendKey copies the two slices into a caller's buffer and
// allocates nothing, and View.KeyLen lets the caller size that buffer
// first.
package dict

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"db2rdf/internal/rdf"
)

// LidBase is the first list id. Term ids grow upward from 1; lids,
// which the store mints, grow upward from LidBase, so the two spaces
// never collide in practice (2^62 terms would be needed).
const LidBase int64 = 1 << 62

// IsLid reports whether id denotes a multi-value list id rather than a
// term id.
func IsLid(id int64) bool { return id >= LidBase }

// fcBlockSize is the number of keys per front-coded block. 16 keeps the
// per-block fixed cost (two string headers plus two offset arrays)
// around ten bytes per term while the head key a decode may copy a
// prefix from stays nearby.
const fcBlockSize = 16

// fcBlock is one sealed front-coded block of fcBlockSize term keys.
// Entry 0 is head, stored whole; entry j>0 is head[:lcp[j-1]] followed
// by the blob slice ending at end[j-1] (and starting at the previous
// entry's end). Blocks are immutable once built.
type fcBlock struct {
	head string
	blob string
	lcp  [fcBlockSize - 1]uint32
	end  [fcBlockSize - 1]uint32
}

// View is an immutable published state of the id→term store: the
// sealed blocks plus the raw keys that have not filled a block yet.
// Decode reads one lock-free via the atomic pointer; a query keeps the
// one current when it finished executing to render its answer's keys
// (AppendKey).
type View struct {
	blocks []fcBlock
	tail   []string
	n      int
}

// parts addresses entry i (id i+1): its key is prefix followed by
// suffix. Every read of the store goes through here.
func (v *View) parts(i int) (prefix, suffix string) {
	bi, j := i/fcBlockSize, i%fcBlockSize
	if bi >= len(v.blocks) {
		return "", v.tail[i-len(v.blocks)*fcBlockSize]
	}
	b := &v.blocks[bi]
	if j == 0 {
		return "", b.head
	}
	var start uint32
	if j > 1 {
		start = b.end[j-2]
	}
	return b.head[:b.lcp[j-1]], b.blob[start:b.end[j-1]]
}

func (v *View) keyAt(i int) string {
	prefix, suffix := v.parts(i)
	if prefix == "" {
		return suffix
	}
	return prefix + suffix
}

// Covers reports whether id is a term id of this view. A nil view (an
// empty dictionary) covers nothing.
func (v *View) Covers(id int64) bool { return v != nil && id >= 1 && id <= int64(v.n) }

// KeyLen returns the length of the stored key of a covered term id,
// what AppendKey appends for it.
func (v *View) KeyLen(id int64) int {
	prefix, suffix := v.parts(int(id - 1))
	return len(prefix) + len(suffix)
}

// AppendKey appends the stored key (Term.Key) of a covered term id to
// dst without allocating beyond dst's growth.
func (v *View) AppendKey(dst []byte, id int64) []byte {
	prefix, suffix := v.parts(int(id - 1))
	return append(append(dst, prefix...), suffix...)
}

// Dict interns RDF terms. It is safe for concurrent use. The dictionary is append-only and versioned: every
// Encode that allocates a new id republishes the front-coded store
// through an atomic pointer, so Decode — the hot call on every query's
// result materialization — resolves ids entirely lock-free even while
// a bulk load is interning thousands of new terms. A published store
// is immutable by construction (the blocks slice is len-capped, the
// tail freshly copied), and ids are only handed out after the key
// lands in the store, so a reader's store always covers every id any
// published store snapshot can contain.
type Dict struct {
	mu     sync.RWMutex
	byKey  map[string]int64
	blocks []fcBlock // sealed blocks; len-capped at every publish
	pend   []string  // keys of the partially filled last block
	n      int       // total interned terms
	rawLen int64     // what the raw []rdf.Term layout would hold in string bytes

	pub atomic.Pointer[View] // published store for lock-free Decode
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{byKey: make(map[string]int64)}
}

func lcpLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// sealBlock front-codes fcBlockSize keys into an immutable block.
func sealBlock(keys []string) fcBlock {
	var b fcBlock
	b.head = keys[0]
	var blob []byte
	for j := 1; j < fcBlockSize; j++ {
		l := lcpLen(b.head, keys[j])
		blob = append(blob, keys[j][l:]...)
		b.lcp[j-1] = uint32(l)
		b.end[j-1] = uint32(len(blob))
	}
	b.blob = string(blob)
	return b
}

// appendLocked adds key as the next id. Caller holds the write lock,
// has checked the key is new, and republishes afterwards.
func (d *Dict) appendLocked(key string) int64 {
	d.pend = append(d.pend, key)
	if len(d.pend) == fcBlockSize {
		d.blocks = append(d.blocks, sealBlock(d.pend))
		d.pend = d.pend[:0]
	}
	d.n++
	id := int64(d.n)
	d.byKey[key] = id
	return id
}

// publishLocked republishes the lock-free store. The published blocks
// header is len-capped by value, so readers can never index past it
// even though the writer keeps appending sealed blocks to the shared
// backing array; the tail is a fresh copy because the writer reuses
// its backing in place. Readers load the pointer with acquire
// semantics, so a reader that sees the new n also sees every key that
// backs it.
func (d *Dict) publishLocked() {
	d.pub.Store(&View{
		blocks: d.blocks[:len(d.blocks):len(d.blocks)],
		tail:   append([]string(nil), d.pend...),
		n:      d.n,
	})
}

// lockedView is the writer's current state as a View; valid only while
// the caller holds the lock.
func (d *Dict) lockedView() View {
	return View{blocks: d.blocks, tail: d.pend, n: d.n}
}

// View returns the published store: every term id that any published
// relation snapshot references, readable lock-free and never changing.
// It is nil while the dictionary is empty.
func (d *Dict) View() *View { return d.pub.Load() }

// Encode interns t, returning its id (allocating one if new).
func (d *Dict) Encode(t rdf.Term) int64 {
	key := t.Key()
	d.mu.RLock()
	id, ok := d.byKey[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.byKey[key]; ok {
		return id
	}
	d.rawLen += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
	id = d.appendLocked(key)
	d.publishLocked()
	return id
}

// Lookup returns the id of t without interning, and whether it exists.
func (d *Dict) Lookup(t rdf.Term) (int64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byKey[t.Key()]
	return id, ok
}

// termFromStoredKey reparses a stored term key. The keys were produced
// by Term.Key, so reparsing cannot fail; an error here means the store
// itself is corrupt.
func termFromStoredKey(key string) rdf.Term {
	t, err := rdf.TermFromKey(key)
	if err != nil {
		panic(fmt.Sprintf("dict: corrupt stored key: %v", err))
	}
	return t
}

// Decode returns the term for a term id. Lock-free: it reads the
// atomically published store. An id allocated after the last publish
// this reader observed cannot appear in any data the reader sees (ids
// are interned before rows referencing them are written and
// published), so a miss here is a genuinely unknown id — but fall back
// to the locked state to keep the error path exact under races.
func (d *Dict) Decode(id int64) (rdf.Term, error) {
	if v := d.pub.Load(); v.Covers(id) {
		return termFromStoredKey(v.keyAt(int(id - 1))), nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	v := d.lockedView()
	if !v.Covers(id) {
		return rdf.Term{}, fmt.Errorf("dict: unknown term id %d", id)
	}
	return termFromStoredKey(v.keyAt(int(id - 1))), nil
}

// MustDecode is Decode for callers that already validated the id.
func (d *Dict) MustDecode(id int64) rdf.Term {
	t, err := d.Decode(id)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// ResidentBytes reports the in-process footprint of the id→term store:
// block fixed costs, head and suffix-blob contents, and the raw tail
// keys. The byKey map is excluded — it is identical across encodings
// (dict_resident_bytes measures the storage the front coding changes).
func (d *Dict) ResidentBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	const sliceHeader = 24
	const stringHeader = 16
	total := int64(2 * sliceHeader)
	blockFixed := int64(unsafe.Sizeof(fcBlock{}))
	for i := range d.blocks {
		total += blockFixed + int64(len(d.blocks[i].head)+len(d.blocks[i].blob))
	}
	total += int64(cap(d.pend)) * stringHeader
	for _, k := range d.pend {
		total += int64(len(k))
	}
	return total
}

// RawBytes reports what the pre-encoding layout (a plain []rdf.Term)
// would occupy for the same contents: one Term struct per id plus its
// string bytes. This is the baseline dict_resident_bytes is gated
// against.
func (d *Dict) RawBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(d.n)*int64(unsafe.Sizeof(rdf.Term{})) + d.rawLen
}

// SnapshotState returns a copy of the interned term slice (index i
// holds the term with id i+1), for durability snapshots. Because the dictionary is append-only, a copy taken at or
// after a store snapshot's publish covers every id that snapshot's
// relations can reference; any extra trailing terms are merely unused.
func (d *Dict) SnapshotState() []rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	terms := make([]rdf.Term, d.n)
	v := d.lockedView()
	for i := range terms {
		terms[i] = termFromStoredKey(v.keyAt(i))
	}
	return terms
}

// Restore replaces the dictionary contents wholesale (crash recovery).
// Term i of the slice receives id i+1, exactly as the original
// interning order assigned. Duplicate term keys indicate a corrupt
// snapshot and are rejected; on error the dictionary is reset to empty.
func (d *Dict) Restore(terms []rdf.Term) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	reset := func() {
		d.byKey = make(map[string]int64)
		d.blocks = nil
		d.pend = nil
		d.n = 0
		d.rawLen = 0
		d.pub.Store(nil)
	}
	reset()
	d.byKey = make(map[string]int64, len(terms))
	for _, t := range terms {
		key := t.Key()
		if _, dup := d.byKey[key]; dup {
			reset()
			return fmt.Errorf("dict: restore: duplicate term key %q", key)
		}
		d.rawLen += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
		d.appendLocked(key)
	}
	if d.n > 0 {
		d.publishLocked()
	}
	return nil
}
