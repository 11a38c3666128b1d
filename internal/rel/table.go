package rel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unsafe"
)

// Column describes one table column. Every column stores int64 ids or
// NULL (column.go); the schema only names them.
type Column struct {
	Name string
}

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the position of the named column, or -1. This is
// the slow path (linear scan); hot callers resolve through the table's
// cached map (Table.ColumnIndex).
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// hashIndex is an equality index on one column, keyed by the stored
// int64 ids. The posting map is a layered copy-on-write structure (see
// cowmap.go) so a published snapshot keeps a stable sealed view while
// the live index mutates: the writer's unpublished keys sit in a hash
// map, and every sealed generation is a sorted run of keys with their
// rows in one array, found through a bucket directory.
type hashIndex struct {
	col   int
	posts *postMap
}

// seal closes the index's dirty generation and returns the immutable
// copy for a published snapshot. Caller holds the table write lock.
func (x *hashIndex) seal() *hashIndex {
	p := x.posts.seal()
	return &hashIndex{col: x.col, posts: &p}
}

// Table is an in-memory relation with optional hash indexes, stored
// as one chunked vector per column (column.go). Concurrent readers are
// safe once loading has finished; writes take an exclusive lock.
// Publish freezes the current contents into an immutable snapshot table
// that shares all chunk data; from then on writers copy any shared
// chunk, bitmap or slice directory before mutating it (generation
// stamps wgen/sgen/tombGen track ownership), so snapshots never observe
// a mutation.
type Table struct {
	Name   string
	Schema Schema

	mu      sync.RWMutex
	nrows   int
	cols    []*colVec
	tomb    []*tombChunk          // per-chunk tombstone bitmaps; nil entry = no deletes (see tombstone.go)
	dead    int                   // total tombstoned rows
	indexes map[string]*hashIndex // by lower-cased column name
	colIdx  map[string]int        // lower-cased column name → position
	names   []string              // lower-cased column names, by position

	wgen        uint64 // writer generation: bumped by Publish; 0 = never published
	tombGen     uint64 // generation that owns the tomb slice
	compactions int64  // chunks compacted at publish time (metrics)
}

// NewTable creates an empty table. The column-name cache is built here
// once; Schema is immutable after table creation (there is no ALTER
// TABLE), so the cache can never go stale.
func NewTable(name string, schema Schema) *Table {
	t := &Table{
		Name:    name,
		Schema:  schema,
		cols:    make([]*colVec, len(schema)),
		indexes: make(map[string]*hashIndex),
		colIdx:  make(map[string]int, len(schema)),
		names:   make([]string, len(schema)),
	}
	for i, c := range schema {
		t.names[i] = strings.ToLower(c.Name)
		t.colIdx[t.names[i]] = i
		t.cols[i] = &colVec{}
	}
	return t
}

// ColumnIndex returns the position of the named column, or -1, via the
// map built at table creation — O(1) instead of Schema.ColumnIndex's
// O(columns) scan, which matters on DPH/RPH tables with 2k+2 columns.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows
}

// Insert appends a row; it must match the schema width.
func (t *Table) Insert(r Row) error {
	_, err := t.AppendRow(r)
	return err
}

// AppendRow appends a row and returns its index. The index is assigned
// under the table lock, so concurrent appenders each learn the true
// position of their row (Insert alone would leave Len() racy).
func (t *Table) AppendRow(r Row) (int, error) {
	if len(r) != len(t.Schema) {
		return 0, fmt.Errorf("rel: table %s: row width %d != schema width %d", t.Name, len(r), len(t.Schema))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nrows
	for j, col := range t.cols {
		col.appendVal(t.wgen, id, r[j])
	}
	t.nrows++
	for _, idx := range t.indexes {
		idx.add(r[idx.col], int32(id))
	}
	return id, nil
}

// CellAt returns the cell at (row i, column j). Cheaper than RowAt
// when only a few cells of a wide row are needed: it reads one vector
// instead of materializing 2k+2 columns.
func (t *Table) CellAt(i, j int) Cell {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cols[j].get(i)
}

// SetCell updates the single cell (row i, column j), mutating the
// column vector copy-on-write. Indexed columns must not change value
// unless reindexed by the caller.
func (t *Table) SetCell(i, j int, v Cell) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= t.nrows {
		return fmt.Errorf("rel: table %s: row %d out of range", t.Name, i)
	}
	if j < 0 || j >= len(t.Schema) {
		return fmt.Errorf("rel: table %s: column %d out of range", t.Name, j)
	}
	t.cols[j].set(t.wgen, i, v)
	return nil
}

// RowAt materializes row i as a fresh row; prefer CellAt when only a
// few columns are needed.
func (t *Table) RowAt(i int) Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r := make(Row, len(t.cols))
	for j, col := range t.cols {
		r[j] = col.get(i)
	}
	return r
}

// Rows materializes every live row of the table (the executor's scan
// paths read the vectors directly instead — see vecscan.go).
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rd := &tableReader{cols: t.cols}
	rows := make([]Row, 0, t.nrows-t.dead)
	for i := 0; i < t.nrows; i++ {
		if !t.deadLocked(i) {
			r := make(Row, len(t.cols))
			rd.rowInto(r, i)
			rows = append(rows, r)
		}
	}
	return rows
}

// reader returns a snapshot for reading the table columns src (table
// positions, in the order the reader's rows carry them). It is the one
// way the executor turns table cells into rows, so a query pays for the
// columns it names and not for the table's width. rowAt fills a single
// scratch buffer: the returned row is valid only until the next rowAt
// call and must be copied (rowBuf.push does) before being retained.
// One reader belongs to exactly one goroutine.
func (t *Table) reader(src []int) *tableReader {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rd := &tableReader{cols: make([]*colVec, len(src)), nrows: t.nrows, tomb: t.tomb}
	for j, c := range src {
		rd.cols[j] = t.cols[c]
	}
	return rd
}

type tableReader struct {
	cols  []*colVec // the vectors of src, in src order
	tomb  []*tombChunk
	nrows int
	buf   Row // rowAt's scratch, allocated on first use
}

// rowAt returns row i in the scratch buffer; see Table.reader.
func (rd *tableReader) rowAt(i int) Row {
	if rd.buf == nil {
		rd.buf = make(Row, len(rd.cols))
	}
	rd.rowInto(rd.buf, i)
	return rd.buf
}

// rowInto gathers the reader's columns of row i into dst.
func (rd *tableReader) rowInto(dst Row, i int) {
	// Hot path for index probes over sparse tables: compute the chunk
	// coordinates once, and settle absent cells (nil chunk or cleared
	// presence bit — the common case for DPH/RPH predicate columns)
	// before any rank work.
	ci, off := i>>chunkShift, i&chunkMask
	word, bit := uint(off)>>6, uint64(1)<<(uint(off)&63)
	for j, c := range rd.cols {
		var ck *colChunk
		if ci < len(c.chunks) {
			ck = c.chunks[ci]
		}
		if ck == nil || ck.bits[word]&bit == 0 {
			dst[j] = NullCell
			continue
		}
		dst[j] = Cell{I: ck.intAt(ck.rank(off))}
	}
}

// CreateIndex builds (or rebuilds) a hash index on the named column.
func (t *Table) CreateIndex(col string) error {
	ci := t.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("rel: table %s has no column %q", t.Name, col)
	}
	idx := &hashIndex{col: ci, posts: &postMap{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.cols[ci]
	for i := 0; i < t.nrows; i++ {
		if t.deadLocked(i) {
			continue
		}
		idx.add(v.get(i), int32(i))
	}
	t.indexes[strings.ToLower(col)] = idx
	return nil
}

// HasIndex reports whether the column has a hash index.
func (t *Table) HasIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[strings.ToLower(col)]
	return ok
}

// IndexLookup returns the ids of the rows whose col holds id, through
// the column's hash index, and whether the column is indexed. Returned ids
// are live and in row order: deleted rows are unindexed eagerly, in
// place. The probe runs under the table read lock; the returned list
// is the index's own, and an append only ever writes past its length.
// A list from a sealed generation is a window of the run's postings
// capped at its length, so a caller that appends to it gets a copy; no
// caller may write into it. The caller must not hold the returned list
// across a DeleteRow on the same table.
func (t *Table) IndexLookup(col string, id int64) ([]int32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := t.indexes[strings.ToLower(col)]
	if idx == nil {
		return nil, false
	}
	return idx.posts.find(id), true
}

// indexFor resolves the hash index on col once, so probe loops can
// look values up without re-resolving (and lower-casing) the column
// name per probed row. Returns nil when the column is not indexed.
// On a published snapshot table the returned index is a sealed,
// immutable copy and needs no further synchronization; on a live
// table it must only be read while writers are excluded (the store
// write lock covers the writer-context query pipeline).
func (t *Table) indexFor(col string) *hashIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[strings.ToLower(col)]
}

// add indexes the stored cell v at row id; NULL is not indexed.
func (x *hashIndex) add(v Cell, id int32) {
	if !v.IsNull() {
		x.posts.add(v.I, id)
	}
}

// EstimateBytes approximates the on-disk footprint of the table, used by
// the NULL-storage experiment (§2.3). NULLs cost one bit (null bitmap /
// value compression, as DB2 and Postgres do) and ids cost 8. The
// estimate models the logical content, not its encoding: a table
// reports the same number before and after Publish seals its chunks.
func (t *Table) EstimateBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := int64(t.nrows) * 8 // row headers
	var nulls int64
	for _, col := range t.cols {
		present := 0
		for _, ck := range col.chunks {
			if ck != nil {
				present += ck.n
			}
		}
		total += int64(present) * 8
		nulls += int64(t.nrows - present)
	}
	return total + (nulls+7)/8
}

// ResidentBytes reports the actual in-process memory footprint of the
// table's data, excluding indexes: chunk directories, bitmaps and
// packed vectors. This is the number behind the table_resident_bytes
// benchmark metric.
func (t *Table) ResidentBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	chunkFixed := int64(unsafe.Sizeof(colChunk{}))
	var total int64
	for _, col := range t.cols {
		total += int64(unsafe.Sizeof(colVec{})) + int64(cap(col.chunks))*8
		for _, ck := range col.chunks {
			if ck == nil {
				continue
			}
			total += chunkFixed
			if ck.bits != denseBits {
				total += chunkWords * 8
			}
			total += int64(cap(ck.ints))*8 + int64(cap(ck.packed))*8
		}
	}
	return total
}

// DB is a named collection of tables plus the scalar-function registry
// used by generated SQL (e.g. dictionary decoding for FILTERs).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	funcs  map[string]Func
}

// Func is a scalar SQL function.
type Func func(args []Value) (Value, error)

// NewDB returns an empty database. It has no functions but COALESCE,
// which the expression evaluator handles; the rest are registered
// (RegisterFunc).
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table), funcs: make(map[string]Func)}
}

// CreateTable creates and registers a new table.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("rel: table %q already exists", name)
	}
	t := NewTable(name, schema)
	db.tables[key] = t
	return t, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	return db.table(strings.ToLower(name))
}

// table is Table for an already lower-cased name.
func (db *DB) table(lower string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[lower]
}

// TableNames lists all tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// RegisterFunc registers (or replaces) a scalar function.
func (db *DB) RegisterFunc(name string, f Func) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.funcs[strings.ToLower(name)] = f
}

// function resolves a scalar function by name.
func (db *DB) function(name string) (Func, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, ok := db.funcs[strings.ToLower(name)]
	return f, ok
}
