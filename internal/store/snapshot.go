package store

import (
	"fmt"
	"maps"
	"sync"

	"db2rdf/internal/coloring"
	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// Snapshot publication (DESIGN.md §8). A Snapshot is the store's two
// sides as one reader sees them — DPH/DS keyed by subject and RPH/RS
// keyed by object, each with its spill and multi-value predicate
// markers and its entity count — plus the triple count, the epoch and
// the plan epoch. Every read of the store goes through one.
//
// A published snapshot reads the frozen database (rel.DB.Publish):
// every successful writer, still holding the store write lock, builds
// one and publishes it with one atomic pointer swap. Readers load the
// pointer once and run the whole query against it without touching the
// store lock, so a bulk load on another goroutine proceeds concurrently
// and stays invisible until its own publish. A live snapshot
// (LiveSnapshot) has the same shape over the live tables; it is for the
// holder of the write lock only, which the SPARQL Update path uses so a
// WHERE clause sees the request's earlier operations.
//
// The captured spill/multi maps are shared with the writer until it
// next adds or clears a marker; the predShared flag makes that change
// clone first (copy-on-write under predMu), so a captured map is never
// written again, and a write that moves no marker hands the next
// snapshot the same maps.
//
// The plan epoch versions what the SQL translator reads from a
// snapshot: the four marker sets. It moves only when one of them
// differs by content from the previous snapshot's — a marker a write
// sets or a delete clears (each is exact: see side.countLocked),
// Clear, or recovery. The predicate→column mapping and the column
// budget are fixed when the store is created, so they never move it;
// nor do the statistics, which steer plan quality only.
//
// Memory reclamation is garbage collection: when the last query using
// an old snapshot returns, the snapshot — and every chunk version
// superseded since — becomes unreachable.

// Snapshot is one read view of the store. A published snapshot is
// immutable and all its methods are safe for unlimited concurrent use
// without store locking; a live one is valid only while its caller
// holds the store write lock.
type Snapshot struct {
	store     *Store
	epoch     uint64
	planEpoch uint64 // 0 on a live snapshot
	db        *rel.DB
	live      bool
	sides     [2]sideView // direct, reverse
	triples   int64
	nextLid   int64 // above every lid the tables hold; the snapshot file records it

	closureMu sync.Mutex
	closures  map[string]*rel.Table // closure relations by name
}

// sideView is one side of the schema as a snapshot reads it.
type sideView struct {
	primary, secondary *rel.Table // DPH and DS, or RPH and RS
	spill, multi       map[int64]bool
	entities           int
}

// maxClosures bounds the closure relations one snapshot keeps: beyond
// it a closure is still computed, for its caller only.
const maxClosures = 64

// Snapshot returns the most recently published snapshot. It never
// blocks and never returns nil once New has run.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// LiveSnapshot returns a snapshot of the live store state. The caller
// must hold the store write lock for its whole lifetime and change
// nothing while it reads: the SPARQL Update path takes one per WHERE
// clause, so the clause sees the request's earlier operations.
func (s *Store) LiveSnapshot() *Snapshot {
	return s.view(s.DB, s.epoch.Load(), true)
}

// view builds a snapshot of the current state over db, the live
// database or a frozen copy of it. The caller holds the store write
// lock.
func (s *Store) view(db *rel.DB, epoch uint64, live bool) *Snapshot {
	sn := &Snapshot{store: s, epoch: epoch, db: db, live: live, triples: s.triples,
		nextLid: max(s.direct.nextLid, s.reverse.nextLid)}
	for i, d := range s.sides() {
		v := &sn.sides[i]
		v.primary, v.secondary = db.Table(d.primary.Name), db.Table(d.secondary.Name)
		v.spill, v.multi = d.capturePreds()
		v.entities = d.entities
	}
	return sn
}

// publishLocked advances the epoch and publishes a fresh snapshot of
// the current state. The caller holds the store write lock and has
// actually changed store content (the epoch-iff-changed discipline: a
// no-op write publishes nothing, so cached plans and the snapshot both
// stay valid).
//
// With durability enabled the epoch's captured deltas are appended to
// the WAL — and fsynced, when configured — BEFORE the snapshot swap,
// so any state a reader can observe is already logged. A WAL failure
// still publishes (the memory mutation has happened and must become
// visible) and surfaces the error to the writer; durability is
// degraded from that epoch until the append path recovers.
func (s *Store) publishLocked() error {
	epoch := s.epoch.Add(1)
	var werr error
	if d := s.dur; d != nil {
		if d.closed {
			d.pending = d.pending[:0]
			werr = fmt.Errorf("store: publish at epoch %d: store is closed", epoch)
		} else {
			werr = s.walCommitLocked(epoch)
		}
	}
	s.installLocked(epoch)
	if d := s.dur; d != nil && !d.closed {
		s.maybeSnapshotLocked(epoch)
	}
	return werr
}

// installLocked freezes the current state into a Snapshot at the given
// epoch and publishes it with one atomic pointer swap. The plan epoch
// carries over from the previous snapshot unless a marker set differs.
// Recovery calls it directly (the recovered epoch is re-published, not
// advanced).
func (s *Store) installLocked(epoch uint64) {
	sn := s.view(s.DB.Publish(), epoch, false)
	sn.planEpoch = 1
	if prev := s.snap.Load(); prev != nil {
		sn.planEpoch = prev.planEpoch
		if !sameMarkers(prev, sn) {
			sn.planEpoch++
		}
	}
	s.snap.Store(sn)
}

// sameMarkers reports whether two snapshots carry equal spill and
// multi-value marker sets on both sides.
func sameMarkers(a, b *Snapshot) bool {
	for i := range a.sides {
		if !maps.Equal(a.sides[i].spill, b.sides[i].spill) || !maps.Equal(a.sides[i].multi, b.sides[i].multi) {
			return false
		}
	}
	return true
}

// PublishLocked is publishLocked for package db2rdf's update path,
// which batches many mutations under one Lock/Unlock and publishes
// exactly once iff anything changed.
func (s *Store) PublishLocked() error { return s.publishLocked() }

// capturePreds hands out the side's predicate-keyed maps for a
// snapshot, marking them shared so the next writer mutation clones
// them first.
func (d *side) capturePreds() (spill, multi map[int64]bool) {
	d.predMu.Lock()
	defer d.predMu.Unlock()
	d.predShared = true
	return d.spillPreds, d.multiPreds
}

// Live reports whether this is a live snapshot (write-lock callers
// only). Live results must not be cached against the snapshot epoch:
// mid-update content is newer than the published state of the same
// epoch.
func (sn *Snapshot) Live() bool { return sn.live }

// Epoch returns the store epoch this snapshot was published at.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// PlanEpoch returns the plan epoch this snapshot was published at: two
// snapshots with the same plan epoch give the translator the same
// inputs apart from dictionary lookups, so a plan compiled on one runs
// unchanged on the other. A live snapshot reports 0.
func (sn *Snapshot) PlanEpoch() uint64 { return sn.planEpoch }

// DB returns the relational database to execute against: the frozen
// copy, or the live database on a live snapshot. A frozen DB is never
// changed; a query reading closure relations executes on an overlay of
// it (rel.DB.With).
func (sn *Snapshot) DB() *rel.DB { return sn.db }

// Closure returns the relation named name, built by build unless this
// snapshot already keeps one: a published snapshot never changes, so
// neither do a closure's pairs on it. Readers that miss together each
// build, and all return the relation kept first. A failed build is not
// kept; nor is anything on a live snapshot, whose data the write
// lock's holder may change between two calls.
func (sn *Snapshot) Closure(name string, build func() (*rel.Table, error)) (*rel.Table, error) {
	sn.closureMu.Lock()
	t, ok := sn.closures[name]
	sn.closureMu.Unlock()
	if ok {
		return t, nil
	}
	t, err := build()
	if err != nil || sn.live {
		return t, err
	}
	sn.closureMu.Lock()
	defer sn.closureMu.Unlock()
	if kept, ok := sn.closures[name]; ok {
		return kept, nil
	}
	if len(sn.closures) < maxClosures {
		if sn.closures == nil {
			sn.closures = make(map[string]*rel.Table)
		}
		sn.closures[name] = t
	}
	return t, nil
}

// side returns one side's view: the direct side (DPH/DS) or, when
// reverse, the reverse side (RPH/RS).
func (sn *Snapshot) side(reverse bool) *sideView {
	if reverse {
		return &sn.sides[1]
	}
	return &sn.sides[0]
}

// tables returns the four relations in snapshot-file order: DPH, DS,
// RPH, RS.
func (sn *Snapshot) tables() [4]*rel.Table {
	d, r := &sn.sides[0], &sn.sides[1]
	return [4]*rel.Table{d.primary, d.secondary, r.primary, r.secondary}
}

// Mapping returns the predicate-to-column mapping of one side (fixed
// at store creation, never mutated).
func (sn *Snapshot) Mapping(reverse bool) coloring.Mapping { return sn.store.side(reverse).mapping }

// K returns the column-pair budget of one side.
func (sn *Snapshot) K(reverse bool) int { return sn.store.side(reverse).k }

// LookupID resolves a term against the store dictionary (internally
// synchronized and append-only: an id interned after this snapshot
// cannot occur in the snapshot's relations, so a hit merely yields an
// id matching nothing — a correct empty result).
func (sn *Snapshot) LookupID(t rdf.Term) (int64, bool) { return sn.store.Dict.Lookup(t) }

// Decode resolves an id from this snapshot's relations to its term
// (lock-free on the published dictionary version).
func (sn *Snapshot) Decode(id int64) (rdf.Term, error) { return sn.store.Dict.Decode(id) }

// Terms returns the published dictionary view. Loaded after a query has
// executed on this snapshot, it covers every term id the query can
// have produced (ids are interned before the rows naming them publish).
func (sn *Snapshot) Terms() *dict.View { return sn.store.Dict.View() }

// SpillPredicates returns the spill-involved predicate set of one
// side; the translator consults it to decide whether star merging is
// safe (§3.2.1). The returned map is immutable (copy-on-write on the
// writer side).
func (sn *Snapshot) SpillPredicates(reverse bool) map[int64]bool { return sn.side(reverse).spill }

// MultiValued reports whether the predicate holds a DS/RS list for at
// least one entity on the given side; the translator joins the
// secondary relation only for such predicates.
func (sn *Snapshot) MultiValued(pid int64, reverse bool) bool { return sn.side(reverse).multi[pid] }

// AnyMultiValued reports whether any predicate on the given side is
// multi-valued (variable-predicate translations must be conservative).
func (sn *Snapshot) AnyMultiValued(reverse bool) bool { return len(sn.side(reverse).multi) > 0 }

// SpillCount returns the number of spill rows on one side: live DPH or
// RPH rows beyond each entity's first.
func (sn *Snapshot) SpillCount(reverse bool) int {
	v := sn.side(reverse)
	return v.primary.LiveLen() - v.entities
}

// EntityCount returns the number of distinct entities on one side.
func (sn *Snapshot) EntityCount(reverse bool) int { return sn.side(reverse).entities }

// TableBytes returns the resident size of the four relations: chunk
// headers, packed column vectors and null bitmaps. Chunk data a frozen
// table shares with the live one is counted once.
func (sn *Snapshot) TableBytes() int64 {
	var total int64
	for _, t := range sn.tables() {
		total += t.ResidentBytes()
	}
	return total
}

// DictBytes returns the resident size of the dictionary's id→term
// store (front-coded blocks plus the unsealed tail). The dictionary is
// shared and append-only rather than frozen.
func (sn *Snapshot) DictBytes() int64 { return sn.store.Dict.ResidentBytes() }

// StorageBytes returns the total resident data footprint: the four
// relations plus the dictionary's id→term store.
func (sn *Snapshot) StorageBytes() int64 {
	return sn.TableBytes() + sn.DictBytes()
}
