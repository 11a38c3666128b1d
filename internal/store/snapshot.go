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

// Snapshot publication (DESIGN.md §8). Every successful writer, while
// still holding the store write lock, freezes the current state into a
// Snapshot — an immutable bundle of the frozen relational database
// (rel.DB.Publish), the predicate-keyed translator inputs (spill and
// multi-value sets), the entity and triple counts, the new epoch and
// the plan epoch — and publishes it with one atomic pointer swap.
// Everything else a reader asks about (an entity's rows and triples,
// spill rows) is read from the frozen tables and their indexes.
// Readers load the pointer once and run the whole query against that
// snapshot without ever touching the store-level lock: a bulk load on
// another goroutine can proceed concurrently and its partial state is
// invisible until its own publish.
//
// The captured spill/multi maps are shared with the live side until a
// writer next adds a marker; the predShared flag makes that addition
// clone first (copy-on-write under predMu), so a published map is
// never written again, and a write that adds no marker hands the next
// snapshot the same maps.
//
// The plan epoch versions what the SQL translator reads from a
// snapshot: the four marker sets. It moves only when one of them
// differs by content from the previous snapshot's — a marker set by a
// write, a marker cleared by deriveLocked after compaction, Clear, or
// recovery. The predicate→column mapping and the column budget are
// fixed when the store is created, so they never move it; nor do the
// statistics, which steer plan quality only.
//
// Memory reclamation is garbage collection: when the last query using
// an old snapshot returns, the snapshot — and every chunk version
// superseded since — becomes unreachable.

// Snapshot is one immutable published version of the store. All
// methods are safe for unlimited concurrent use without any store
// locking. The zero-db ("live") variant returned by LiveSnapshot
// instead reads the live state and is only for callers already
// holding the store write lock (the SPARQL Update WHERE path).
type Snapshot struct {
	store     *Store
	epoch     uint64
	planEpoch uint64
	db        *rel.DB // frozen database; nil = live fallback

	dph, ds, rph, rs *rel.Table // frozen relations (nil on live)

	dirSpill, revSpill       map[int64]bool
	dirMulti, revMulti       map[int64]bool
	dirEntities, revEntities int
	triples                  int64

	closureMu sync.Mutex
	closures  map[string]*rel.Table // closure relations by name
}

// maxClosures bounds the closure relations one snapshot keeps: beyond
// it a closure is still computed, for its caller only.
const maxClosures = 64

// Snapshot returns the most recently published snapshot. It never
// blocks and never returns nil once New has run.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// LiveSnapshot returns a pass-through snapshot reading the live store
// state. The caller must hold the store write lock for its whole
// lifetime: the SPARQL Update path uses it so DELETE/INSERT ... WHERE
// evaluation sees its own earlier mutations within one request.
func (s *Store) LiveSnapshot() *Snapshot {
	return &Snapshot{store: s, epoch: s.epoch.Load()}
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
	preCompactions := s.Compactions()
	db := s.DB.Publish()
	if s.markerDeletes > 0 && s.Compactions() > preCompactions {
		// This publish compacted chunks after delete churn: derive the
		// conservatively-stale spill/multi markers exactly, so the
		// snapshot (and every plan compiled at its plan epoch) sees the
		// same translator inputs a restarted store would. The live
		// tables keep every invariant derive checks, so it cannot fail.
		_ = s.deriveLocked()
	}
	sn := &Snapshot{store: s, epoch: epoch, db: db}
	sn.dph = sn.db.Table(s.TableName("DPH"))
	sn.ds = sn.db.Table(s.TableName("DS"))
	sn.rph = sn.db.Table(s.TableName("RPH"))
	sn.rs = sn.db.Table(s.TableName("RS"))
	sn.dirSpill, sn.dirMulti = s.direct.capturePreds()
	sn.revSpill, sn.revMulti = s.reverse.capturePreds()
	sn.dirEntities = s.direct.entities
	sn.revEntities = s.reverse.entities
	sn.triples = s.triples
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
	return maps.Equal(a.dirSpill, b.dirSpill) && maps.Equal(a.revSpill, b.revSpill) &&
		maps.Equal(a.dirMulti, b.dirMulti) && maps.Equal(a.revMulti, b.revMulti)
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

// Live reports whether this is a pass-through snapshot of the live
// store (write-lock callers only). Live results must not be cached
// against the snapshot epoch: mid-update content is newer than the
// published state of the same epoch.
func (sn *Snapshot) Live() bool { return sn.db == nil }

// Epoch returns the store epoch this snapshot was published at.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// PlanEpoch returns the plan epoch this snapshot was published at: two
// snapshots with the same plan epoch give the translator the same
// inputs apart from dictionary lookups, so a plan compiled on one runs
// unchanged on the other. A live snapshot reports 0.
func (sn *Snapshot) PlanEpoch() uint64 { return sn.planEpoch }

// DB returns the relational database to execute against: the frozen
// copy, or the live database for a write-lock pass-through. A frozen
// DB is never changed; a query reading closure relations executes on
// an overlay of it (rel.DB.With).
func (sn *Snapshot) DB() *rel.DB {
	if sn.db == nil {
		return sn.store.DB
	}
	return sn.db
}

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
	if err != nil || sn.db == nil {
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

// TableName returns the prefixed name of one of the store's relations.
func (sn *Snapshot) TableName(base string) string { return sn.store.TableName(base) }

// Mapping returns the predicate-to-column mapping of one side (fixed
// at store creation, never mutated).
func (sn *Snapshot) Mapping(reverse bool) coloring.Mapping { return sn.store.Mapping(reverse) }

// K returns the column-pair budget of one side.
func (sn *Snapshot) K(reverse bool) int { return sn.store.K(reverse) }

// LookupID resolves a term against the store dictionary (internally
// synchronized and append-only: an id interned after this snapshot
// cannot occur in the snapshot's relations, so a hit merely yields an
// id matching nothing — a correct empty result).
func (sn *Snapshot) LookupID(t rdf.Term) (int64, bool) { return sn.store.Dict.Lookup(t) }

// EncodeID interns a term (the dictionary is shared and append-only,
// so interning from the read path is safe and ids are stable).
func (sn *Snapshot) EncodeID(t rdf.Term) int64 { return sn.store.Dict.Encode(t) }

// Decode resolves an id from this snapshot's relations to its term
// (lock-free on the published dictionary version).
func (sn *Snapshot) Decode(id int64) (rdf.Term, error) { return sn.store.Dict.Decode(id) }

// Terms returns the published dictionary view. Loaded after a query has
// executed on this snapshot, it covers every term id the query can
// have produced (ids are interned before the rows naming them publish).
func (sn *Snapshot) Terms() *dict.View { return sn.store.Dict.View() }

// SpillPredicates returns the spill-involved predicate set of one side
// as of this snapshot. The returned map is immutable (copy-on-write on
// the writer side).
func (sn *Snapshot) SpillPredicates(reverse bool) map[int64]bool {
	if sn.db == nil {
		return sn.store.SpillPredicates(reverse)
	}
	if reverse {
		return sn.revSpill
	}
	return sn.dirSpill
}

// MultiValued reports whether the predicate held a DS/RS list on the
// given side as of this snapshot.
func (sn *Snapshot) MultiValued(pid int64, reverse bool) bool {
	if sn.db == nil {
		return sn.store.MultiValued(pid, reverse)
	}
	if reverse {
		return sn.revMulti[pid]
	}
	return sn.dirMulti[pid]
}

// AnyMultiValued reports whether any predicate on the given side was
// multi-valued as of this snapshot.
func (sn *Snapshot) AnyMultiValued(reverse bool) bool {
	if sn.db == nil {
		return sn.store.AnyMultiValued(reverse)
	}
	if reverse {
		return len(sn.revMulti) > 0
	}
	return len(sn.dirMulti) > 0
}

// SpillCount returns the number of spill rows on one side as of this
// snapshot: live DPH or RPH rows beyond each entity's first.
func (sn *Snapshot) SpillCount(reverse bool) int {
	primary, _ := sn.tables(reverse)
	return primary.LiveLen() - sn.EntityCount(reverse)
}

// EntityCount returns the number of distinct entities on one side as
// of this snapshot.
func (sn *Snapshot) EntityCount(reverse bool) int {
	if sn.db == nil {
		return sn.store.EntityCount(reverse)
	}
	if reverse {
		return sn.revEntities
	}
	return sn.dirEntities
}

// TableBytes returns the resident size of the four frozen relations
// (shared chunk data is counted once — the frozen directories point at
// the same chunks the live table serves).
func (sn *Snapshot) TableBytes() int64 {
	if sn.db == nil {
		return sn.store.TableBytes()
	}
	var total int64
	for _, t := range []*rel.Table{sn.dph, sn.ds, sn.rph, sn.rs} {
		if t != nil {
			total += t.ResidentBytes()
		}
	}
	return total
}

// DictBytes returns the resident size of the dictionary's id→term
// store. The dictionary is shared (append-only) rather than frozen, so
// this reads the live store's dictionary.
func (sn *Snapshot) DictBytes() int64 { return sn.store.Dict.ResidentBytes() }

// StorageBytes returns the total resident data footprint as of this
// snapshot: the four relations plus the dictionary's id→term store.
func (sn *Snapshot) StorageBytes() int64 {
	return sn.TableBytes() + sn.DictBytes()
}

// tripleCount returns the number of triples as of this snapshot.
func (sn *Snapshot) tripleCount() int64 {
	if sn.db == nil {
		return sn.store.triples
	}
	return sn.triples
}

// tables returns one side's primary and secondary relations as of this
// snapshot (the live ones on a pass-through snapshot).
func (sn *Snapshot) tables(reverse bool) (primary, secondary *rel.Table) {
	switch {
	case sn.db == nil && reverse:
		return sn.store.rph, sn.store.rs
	case sn.db == nil:
		return sn.store.dph, sn.store.ds
	case reverse:
		return sn.rph, sn.rs
	}
	return sn.dph, sn.ds
}
