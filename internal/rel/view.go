package rel

import (
	"maps"
	"strings"
)

// Snapshot publication. Publish freezes a table's current contents
// into an immutable copy that shares all chunk data with the live
// table: the frozen table gets its own colVec headers with len-capped
// chunk directories, a len-capped tombstone directory, sealed index
// copies, and the row/dead counters as of the freeze. Bumping the
// live table's writer generation afterwards makes every shared chunk
// stale for the writer, so the next mutation of any shared piece
// clones it first (see column.go / tombstone.go / cowmap.go).
//
// A frozen table is a plain *Table, so the whole read pipeline —
// point reads, index probes, vectorized scans, materialization — runs
// on it unchanged. Its mutex is never writer-contended (nothing
// mutates a frozen table), so reader-side lock acquisitions on it are
// uncontended atomic ops; readers never wait on a store writer.
// Memory reclamation is garbage collection: when the last query using
// an old snapshot finishes, the snapshot and any chunks superseded by
// newer generations become unreachable and are collected.

// Publish returns an immutable frozen copy of the table and opens a
// new writer generation on the receiver.
//
// Before freezing, every not-yet-sealed chunk is sealed into its
// compressed form (column.go): publish cost stays proportional to the
// chunks written since the last publish, and because the live
// directory slots are redirected to the sealed copies too, the raw
// slices become garbage once no in-flight reader holds them.
func (t *Table) Publish() *Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compactPendingLocked()
	t.sealChunksLocked()
	f := &Table{
		Name:    t.Name,
		Schema:  t.Schema,
		nrows:   t.nrows,
		dead:    t.dead,
		colIdx:  t.colIdx,
		names:   t.names,
		indexes: make(map[string]*hashIndex, len(t.indexes)),

		compactions: t.compactions,
	}
	for name, idx := range t.indexes {
		f.indexes[name] = idx.seal()
	}
	f.cols = make([]*colVec, len(t.cols))
	for i, c := range t.cols {
		f.cols[i] = &colVec{chunks: c.chunks[:len(c.chunks):len(c.chunks)]}
	}
	f.tomb = t.tomb[:len(t.tomb):len(t.tomb)]
	t.wgen++
	return f
}

// sealChunksLocked replaces every unsealed chunk with a sealed
// (compressed, immutable) copy via a COW directory-slot store. The raw
// chunk objects are never mutated — a concurrent reader that captured
// the directory earlier keeps reading its raw versions safely. An
// unsealed chunk implies the directory was already made private to the
// current generation by the mutation that created it, so the slot
// stores are invisible to every published snapshot; mutableDir covers
// the remaining first-publish case.
func (t *Table) sealChunksLocked() {
	for _, c := range t.cols {
		for ci, ck := range c.chunks {
			if ck == nil || ck.sealed {
				continue
			}
			c.mutableDir(t.wgen)
			c.chunks[ci] = ck.seal(t.wgen)
		}
	}
}

// Publish freezes every table of the database into a new read-only DB
// sharing chunk data with the live tables. The returned DB is safe
// for unlimited concurrent readers while the live DB keeps mutating;
// nothing creates or drops a table in it (With overlays extra ones).
func (db *DB) Publish() *DB {
	db.mu.RLock()
	live := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		live = append(live, t)
	}
	funcs := make(map[string]Func, len(db.funcs))
	for k, f := range db.funcs {
		funcs[k] = f
	}
	db.mu.RUnlock()
	out := &DB{tables: make(map[string]*Table, len(live)), funcs: funcs}
	for _, t := range live {
		out.tables[strings.ToLower(t.Name)] = t.Publish()
	}
	return out
}

// With returns a database that resolves the tables ts beside db's own,
// leaving db unchanged: a query reads relations computed for it (the
// pairs of a property-path closure) without touching a frozen DB.
func (db *DB) With(ts ...*Table) *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := &DB{tables: make(map[string]*Table, len(db.tables)+len(ts)), funcs: maps.Clone(db.funcs)}
	maps.Copy(out.tables, db.tables)
	for _, t := range ts {
		out.tables[strings.ToLower(t.Name)] = t
	}
	return out
}
