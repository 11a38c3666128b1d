// Package store implements the DB2RDF entity-oriented RDF store of
// Bornea et al. (SIGMOD 2013, §2): the Direct Primary Hash (DPH) and
// Direct Secondary Hash (DS) relations keyed by subject, their reverse
// twins RPH and RS keyed by object, spill handling, multi-valued
// predicate lists, predicate-to-column mappings (hash or coloring
// based), and the dataset statistics the SPARQL optimizer consumes.
package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"db2rdf/internal/coloring"
	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// Options configures a Store.
type Options struct {
	// K is the number of (pred_i, val_i) column pairs in DPH.
	K int
	// KReverse is the number of pairs in RPH (the paper's k'); 0 means
	// same as K.
	KReverse int
	// Mapping assigns predicates to DPH columns; nil means a 2-way
	// composed hash over K columns.
	Mapping coloring.Mapping
	// ReverseMapping assigns predicates to RPH columns; nil means a
	// 2-way composed hash over KReverse columns.
	ReverseMapping coloring.Mapping
	// Durability enables the WAL + snapshot persistence layer (see
	// persist.go); the zero value keeps the store purely in-memory.
	Durability Durability
}

func (o *Options) fill() {
	if o.K <= 0 {
		o.K = 32
	}
	if o.KReverse <= 0 {
		o.KReverse = o.K
	}
	if o.Mapping == nil {
		o.Mapping = coloring.NewHashMapping(o.K, 2)
	}
	if o.ReverseMapping == nil {
		o.ReverseMapping = coloring.NewHashMapping(o.KReverse, 2)
	}
}

// Store is a DB2RDF store over a relational database.
//
// Concurrency model (see DESIGN.md §8): writers (Insert, Load,
// LoadTriples, Delete, Clear, the Update path) serialize
// on the store mutex, mutate through copy-on-write at chunk
// granularity, and — iff anything changed — publish a frozen Snapshot
// with one atomic pointer swap while still holding the lock. Readers
// (the query pipeline in package db2rdf) call Snapshot() once and run
// entirely against the frozen state: no store-level lock appears on
// the read path, so query latency is decoupled from concurrent bulk
// loads. Every read of the store's relations, markers and counts goes
// through a Snapshot; the holder of the write lock reads its own
// changes through LiveSnapshot.
type Store struct {
	DB   *rel.DB
	Dict *dict.Dict
	Opts Options

	direct  *side
	reverse *side

	mu sync.RWMutex

	// triples counts the stored triples: +1 per fresh insert, -1 per
	// delete, 0 on clear, recounted on recovery. Guarded by the store
	// write lock; each snapshot captures it (installLocked) for the
	// optimizer's statistics (stats.go).
	triples int64

	// epoch counts publishes. Every writer that changed content bumps
	// it (inside publishLocked) while holding the write lock, so two
	// readers observing the same Snapshot().Epoch() saw byte-identical
	// store content. It moves before the WAL append and the pointer
	// swap, so only the writer reads it; everyone else reads the
	// published snapshot's. The compiled-plan cache in package db2rdf
	// keys its entries on the snapshot's plan epoch instead
	// (snapshot.go), and on this one only for plans that looked up an
	// absent constant.
	epoch atomic.Uint64

	// snap is the atomically published snapshot readers run against;
	// see snapshot.go.
	snap atomic.Pointer[Snapshot]

	// dur is the durability runtime (nil when persistence is off). It
	// is installed after recovery completes, so replay's inserts and
	// deletes never re-capture deltas; see persist.go.
	dur *durableState
}

// side holds one direction (subject-keyed DPH/DS or object-keyed
// RPH/RS). Everything about an entity — its rows, whether it spilled,
// the members of its lists — is read from the tables through the
// DPH/RPH entry index and the DS/RS lid and elm indexes. Only the
// predicate-keyed markers and their counts and the entity count are
// kept beside them.
type side struct {
	primary   *rel.Table
	secondary *rel.Table
	mapping   coloring.Mapping
	k         int

	// entities counts the entities with at least one live primary row:
	// +1 when an entity's first row is appended, -1 when its last is
	// deleted. Guarded by the store write lock; during a bulk load only
	// the side's own goroutine writes it.
	entities int

	// nextLid is the next list id the side mints (newLid). The direct
	// side's lids are even offsets from dict.LidBase and the reverse
	// side's odd ones (lidOff), so the two never meet and each side's
	// lids depend only on the order in which it creates lists.
	nextLid, lidOff int64

	predMu     sync.Mutex
	spillPreds map[int64]bool // predicate ids involved in spills
	multiPreds map[int64]bool // predicate ids that own at least one lid
	predShared bool           // maps captured by a snapshot: clone before mutating

	// spillCells and multiCells count, per predicate, the live cells
	// behind each marker: cells of a spilled entity, and cells whose
	// value is a lid. A predicate is in spillPreds (multiPreds) exactly
	// while its count is positive, so the markers stay exact across
	// deletes without rescanning the tables. Writer-private: no
	// snapshot captures them.
	spillCells map[int64]int
	multiCells map[int64]int
}

// mutablePredsLocked makes the predicate maps private to the writer
// before an in-place mutation: if the current maps were captured by a
// published snapshot they are cloned first, so the snapshot's copies
// are never written again. The caller holds predMu.
func (d *side) mutablePredsLocked() {
	if !d.predShared {
		return
	}
	sp := make(map[int64]bool, len(d.spillPreds))
	for pid := range d.spillPreds {
		sp[pid] = true
	}
	mp := make(map[int64]bool, len(d.multiPreds))
	for pid := range d.multiPreds {
		mp[pid] = true
	}
	d.spillPreds, d.multiPreds = sp, mp
	d.predShared = false
}

// rows returns the entity's live primary row ids, in row order, from
// the entry index. The list is the index's own: it must not be held
// across a delete of one of its rows.
func (d *side) rows(entity int64) []int32 {
	ids, _ := d.primary.IndexLookup("entry", entity)
	return ids
}

// spilled reports whether an entity with the given rows has ever needed
// more than one row: every row of such an entity carries spill = 1.
func (d *side) spilled(rows []int32) bool {
	return len(rows) > 0 && d.primary.CellAt(int(rows[0]), 1) == rel.ID(1)
}

// listRow returns the secondary row holding member in list lid, or -1.
// It walks whichever of the lid and elm postings is shorter, so a long
// list, such as every subject of one rdf:type, is not scanned to test
// one member.
func (d *side) listRow(lid, member int64) int {
	byLid, _ := d.secondary.IndexLookup("lid", lid)
	byElm, _ := d.secondary.IndexLookup("elm", member)
	ids, col, want := byLid, 1, member
	if len(byElm) < len(byLid) {
		ids, col, want = byElm, 0, lid
	}
	for _, id := range ids {
		if d.secondary.CellAt(int(id), col) == rel.ID(want) {
			return int(id)
		}
	}
	return -1
}

// New creates an empty store, or, with opts.Durability.Dir set,
// recovers the one persisted there.
func New(opts Options) (*Store, error) {
	opts.fill()
	s := &Store{DB: rel.NewDB(), Dict: dict.New(), Opts: opts}
	var err error
	if s.direct, err = newSide(s.DB, "DPH", "DS", opts.Mapping, opts.K, 0); err != nil {
		return nil, err
	}
	if s.reverse, err = newSide(s.DB, "RPH", "RS", opts.ReverseMapping, opts.KReverse, 1); err != nil {
		return nil, err
	}
	s.RegisterSPARQLFuncs()
	if opts.Durability.Dir != "" {
		// Recover from the data directory (or initialize it) and
		// publish the recovered state as the initial snapshot.
		s.mu.Lock()
		err := s.openDurableLocked(opts.Durability)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	// Publish the initial (empty) snapshot so readers never see nil.
	s.mu.Lock()
	s.installLocked(s.epoch.Add(1))
	s.mu.Unlock()
	return s, nil
}

// newSide creates one side's relations in db: the primary (entry,
// spill, then k pred/val pairs) and the secondary (lid, elm). lidOff
// (0 or 1) is the parity of the side's list ids.
func newSide(db *rel.DB, primary, secondary string, m coloring.Mapping, k int, lidOff int64) (*side, error) {
	schema := rel.Schema{{Name: "entry"}, {Name: "spill"}}
	for i := 0; i < k; i++ {
		schema = append(schema, rel.Column{Name: fmt.Sprintf("pred%d", i)}, rel.Column{Name: fmt.Sprintf("val%d", i)})
	}
	d := &side{mapping: m, k: k, lidOff: lidOff}
	d.restartLids(dict.LidBase)
	d.resetState()
	var err error
	if d.primary, err = db.CreateTable(primary, schema); err != nil {
		return nil, err
	}
	if d.secondary, err = db.CreateTable(secondary, rel.Schema{{Name: "lid"}, {Name: "elm"}}); err != nil {
		return nil, err
	}
	return d, d.createIndexes()
}

// createIndexes builds the side's indexes: entry on the primary, lid
// and elm on the secondary. Recovery rebuilds them after decoding.
func (d *side) createIndexes() error {
	if err := d.primary.CreateIndex("entry"); err != nil {
		return err
	}
	if err := d.secondary.CreateIndex("lid"); err != nil {
		return err
	}
	return d.secondary.CreateIndex("elm")
}

// side returns the direct side (DPH/DS) or, when reverse, the reverse
// side (RPH/RS).
func (s *Store) side(reverse bool) *side {
	if reverse {
		return s.reverse
	}
	return s.direct
}

// sides returns the direct and the reverse side, in that order.
func (s *Store) sides() [2]*side { return [2]*side{s.direct, s.reverse} }

// tables returns the four relations in snapshot-file order: DPH, DS,
// RPH, RS.
func (s *Store) tables() [4]*rel.Table {
	return [4]*rel.Table{s.direct.primary, s.direct.secondary, s.reverse.primary, s.reverse.secondary}
}

// Insert adds one triple (idempotent under RDF set semantics): a
// one-triple LoadTriples. The epoch advances only when the triple was
// new: a duplicate insert is a no-op and must not invalidate cached
// query plans.
func (s *Store) Insert(t rdf.Triple) error { return s.LoadTriples([]rdf.Triple{t}) }

// insert places (entity, pred) -> member on one side. It is the one
// placement rule of §2 — a free candidate column of one of the entity's
// rows, else a spill row, and a second value turns the cell into a
// DS/RS list — and bulkInsert, which every writer goes through, is its
// one caller. fresh is false for an exact duplicate; first reports that
// the entity's first row was appended, which the caller adds to the
// entity count.
func (d *side) insert(entity, pid, member int64, predURI string) (fresh, first bool, err error) {
	cols := d.mapping.Columns(predURI)
	rows := d.rows(entity)

	// Already present? Then extend to (or within) a multi-value list.
	// Cell-level access (CellAt/SetCell) reads just the candidate
	// predicate columns instead of materializing the 2k+2-wide row — a
	// RowAt here would cost ~66 vector reads per probed row on the K=32
	// default schema.
	for _, r := range rows {
		ri := int(r)
		for _, c := range cols {
			pc, vc := 2+2*c, 2+2*c+1
			if pv := d.primary.CellAt(ri, pc); !pv.IsNull() && pv.I == pid {
				cur := d.primary.CellAt(ri, vc)
				if !cur.IsNull() && dict.IsLid(cur.I) {
					lid := cur.I
					if d.listRow(lid, member) >= 0 {
						return false, false, nil // duplicate triple
					}
					return true, false, d.secondary.Insert(rel.Row{rel.ID(lid), rel.ID(member)})
				}
				if !cur.IsNull() && cur.I == member {
					return false, false, nil // duplicate triple
				}
				// Convert single value to a list.
				lid := d.newLid()
				if err := d.secondary.Insert(rel.Row{rel.ID(lid), cur}); err != nil {
					return false, false, err
				}
				if err := d.secondary.Insert(rel.Row{rel.ID(lid), rel.ID(member)}); err != nil {
					return false, false, err
				}
				if err := d.primary.SetCell(ri, vc, rel.ID(lid)); err != nil {
					return false, false, err
				}
				d.count(&d.multiPreds, d.multiCells, pid, 1)
				return true, false, nil
			}
		}
	}

	// Not present: find a free candidate column in an existing row.
	for _, r := range rows {
		ri := int(r)
		for _, c := range cols {
			pc, vc := 2+2*c, 2+2*c+1
			if d.primary.CellAt(ri, pc).IsNull() {
				if err := d.primary.SetCell(ri, pc, rel.ID(pid)); err != nil {
					return false, false, err
				}
				if err := d.primary.SetCell(ri, vc, rel.ID(member)); err != nil {
					return false, false, err
				}
				if d.spilled(rows) {
					d.count(&d.spillPreds, d.spillCells, pid, 1)
				}
				return true, false, nil
			}
		}
	}

	// Spill: add a fresh row for the entity.
	spillFlag := int64(0)
	if len(rows) > 0 {
		spillFlag = 1
		first := !d.spilled(rows)
		d.predMu.Lock()
		d.countLocked(&d.spillPreds, d.spillCells, pid, 1)
		if first {
			// Every predicate already stored for this entity is now
			// involved in spills: a merged star lookup could miss it.
			for _, r := range rows {
				for c := 0; c < d.k; c++ {
					if pv := d.primary.CellAt(int(r), 2+2*c); !pv.IsNull() {
						d.countLocked(&d.spillPreds, d.spillCells, pv.I, 1)
					}
				}
			}
		}
		d.predMu.Unlock()
		if first {
			// Flag prior rows as spilled.
			for _, r := range rows {
				if err := d.primary.SetCell(int(r), 1, rel.ID(1)); err != nil {
					return false, false, err
				}
			}
		}
	}
	newRow := rel.NullRow(2 + 2*d.k)
	newRow[0] = rel.ID(entity)
	newRow[1] = rel.ID(spillFlag)
	c := cols[0]
	newRow[2+2*c] = rel.ID(pid)
	newRow[2+2*c+1] = rel.ID(member)
	if _, err := d.primary.AppendRow(newRow); err != nil {
		return false, false, err
	}
	return true, len(rows) == 0, nil
}

// newLid mints the side's next list id.
func (d *side) newLid() int64 {
	lid := d.nextLid
	d.nextLid += 2
	return lid
}

// restartLids sets the side's next list id to the first of its parity
// at or above lid.
func (d *side) restartLids(lid int64) {
	n := lid - dict.LidBase
	d.nextLid = lid + (n+d.lidOff)&1
}

// count is countLocked under predMu.
func (d *side) count(set *map[int64]bool, cells map[int64]int, pid int64, delta int) {
	d.predMu.Lock()
	d.countLocked(set, cells, pid, delta)
	d.predMu.Unlock()
}

// countLocked adds delta to pid's count in cells, one of the side's
// per-predicate cell counts, and keeps the matching marker set
// (&d.spillPreds or &d.multiPreds) exact: pid enters it when its count
// leaves zero and leaves it when the count returns to zero. Only those
// crossings touch the set, cloning it first if a snapshot captured it,
// so a write that moves no marker hands the next snapshot the same maps
// and keeps its plan epoch. The caller holds predMu.
func (d *side) countLocked(set *map[int64]bool, cells map[int64]int, pid int64, delta int) {
	n := cells[pid] + delta
	if n != 0 {
		cells[pid] = n
	} else {
		delete(cells, pid)
	}
	if (n > 0) == (*set)[pid] {
		return
	}
	d.mutablePredsLocked()
	if n > 0 {
		(*set)[pid] = true
	} else {
		delete(*set, pid)
	}
}

// deriveLocked recomputes, from the tables alone, everything the store
// keeps beside them: each side's spill/multi predicate counts and
// markers and its entity count, and the triple count. Only recovery
// calls it, after decoding a snapshot; writers keep all of it exact as
// they go. An error means the tables break an invariant every writer
// keeps, so only a decoded snapshot can return one. The caller holds
// the store write lock.
func (s *Store) deriveLocked() error {
	triples, err := s.direct.derive()
	if err != nil {
		return err
	}
	if _, err := s.reverse.derive(); err != nil {
		return err
	}
	s.triples = triples
	return nil
}

// derive rebuilds one side's marker counts, markers and entity count
// from its tables (census) and returns the number of triples the side
// stores.
func (d *side) derive() (int64, error) {
	c, err := d.census()
	if err != nil {
		return 0, err
	}
	d.predMu.Lock()
	// Fresh maps replace the (possibly snapshot-shared) old ones, so a
	// published snapshot's captured copies are never written.
	d.spillPreds, d.multiPreds, d.predShared = keys(c.spillCells), keys(c.multiCells), false
	d.spillCells, d.multiCells = c.spillCells, c.multiCells
	d.predMu.Unlock()
	d.entities = c.entities
	return c.triples, nil
}

// sideCensus is what one side's tables say about everything the side
// keeps beside them.
type sideCensus struct {
	spillCells, multiCells map[int64]int // as side's fields
	entities               int
	triples                int64
}

// census counts one side's tables without changing the side. It visits
// each entity once, at its first entry posting, and rejects content no
// writer produces: a predicate without a value, and a lid with no
// members or with a member-less row.
func (d *side) census() (sideCensus, error) {
	c := sideCensus{spillCells: make(map[int64]int), multiCells: make(map[int64]int)}
	for i, n := 0, d.primary.Len(); i < n; i++ {
		ev := d.primary.CellAt(i, 0)
		if ev.IsNull() {
			continue // dead row, cleared
		}
		rows := d.rows(ev.I)
		if len(rows) == 0 || int(rows[0]) != i {
			continue // dead row, or not the entity's first
		}
		c.entities++
		spilled := d.spilled(rows)
		for _, r := range rows {
			for col := 0; col < d.k; col++ {
				pv := d.primary.CellAt(int(r), 2+2*col)
				if pv.IsNull() {
					continue
				}
				if spilled {
					c.spillCells[pv.I]++
				}
				vv := d.primary.CellAt(int(r), 2+2*col+1)
				switch {
				case vv.IsNull():
					return c, fmt.Errorf("store: %s row %d has predicate without value", d.primary.Name, r)
				case dict.IsLid(vv.I):
					members, _ := d.secondary.IndexLookup("lid", vv.I)
					if len(members) == 0 {
						return c, fmt.Errorf("store: %s row %d references empty lid %d", d.primary.Name, r, vv.I)
					}
					for _, m := range members {
						if d.secondary.CellAt(int(m), 1).IsNull() {
							return c, fmt.Errorf("store: %s row %d has lid without member", d.secondary.Name, m)
						}
					}
					c.multiCells[pv.I]++
					c.triples += int64(len(members))
				default:
					c.triples++
				}
			}
		}
	}
	return c, nil
}

// keys returns the set of keys of a per-predicate count.
func keys(cells map[int64]int) map[int64]bool {
	set := make(map[int64]bool, len(cells))
	for pid := range cells {
		set[pid] = true
	}
	return set
}

// EncodedChunks returns the process-wide count of column chunks sealed
// into the compressed representation (metrics).
func EncodedChunks() int64 { return rel.SealedChunksTotal() }

// Compactions returns the total number of publish-time chunk
// compactions across the four relations (metrics).
func (s *Store) Compactions() int64 {
	var total int64
	for _, t := range s.tables() {
		total += t.Compactions()
	}
	return total
}

// DeadRows returns the current number of tombstoned rows across the
// four relations (metrics).
func (s *Store) DeadRows() int {
	n := 0
	for _, t := range s.tables() {
		n += t.DeadRows()
	}
	return n
}

// BuildMappings scans a sample of triples, builds interference graphs
// for both sides, colors them greedily within the given budgets, and
// returns hybrid colored mappings plus the colorings themselves (for
// reporting, Table 4).
func BuildMappings(triples []rdf.Triple, k, kRev int) (direct, reverse coloring.Mapping, dc, rc *coloring.Coloring) {
	subjPreds := make(map[string][]string)
	objPreds := make(map[string][]string)
	for _, t := range triples {
		sk := t.S.Key()
		subjPreds[sk] = append(subjPreds[sk], t.P.Value)
		objPreds[t.O.Key()] = append(objPreds[t.O.Key()], t.P.Value)
	}
	dg := coloring.NewInterference()
	for _, preds := range subjPreds {
		dg.AddEntity(preds)
	}
	rg := coloring.NewInterference()
	for _, preds := range objPreds {
		rg.AddEntity(preds)
	}
	dc = coloring.Greedy(dg, k)
	rc = coloring.Greedy(rg, kRev)
	direct = coloring.NewColoredMapping(dc, k, nil)
	reverse = coloring.NewColoredMapping(rc, kRev, nil)
	return direct, reverse, dc, rc
}
