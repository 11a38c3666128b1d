package rel

// relation is a materialized intermediate result during execution:
// the rows of one unit of a core (bind.go), of a prefix of its join
// chain, or of the joined core, laid out as Bind fixed.
type relation struct {
	// rows are the relation's cells; a base scan has none yet, only
	// their width.
	rows batch
	// base points at the backing table when this relation is an unread
	// scan of it: joins can then use the table's hash indexes (index
	// nested-loop) instead of building a fresh hash, and materialize
	// routes it through the vectorized scan (vecscan.go). Size such a
	// relation with rowCount, not rows.n. src maps each of its cells to
	// its table column (the columns its core references, see bind.go),
	// and every read of base goes through Table.reader(src).
	base *Table
	src  []int
	// pending holds single-relation filters that have not been applied
	// yet: base scans defer them so an index nested-loop join can
	// evaluate them per probed row instead of materializing a filtered
	// copy of the whole table. Consumers must call materialize (or
	// check pending per probe) before using rows.
	pending []Expr
	// unpivot is set on a base scan that carries a fused lateral item
	// (unpivot.go): its cells after src's are the lateral's columns,
	// which no table read fills — the operator that runs the scan
	// expands each row id into its pairs.
	unpivot *unpivot
}

// rowCount is the relation's input cardinality for plan sizing: the
// base table's live row count for an unmaterialized scan (an upper
// bound when filters are pending), rows.n otherwise.
func (r *relation) rowCount() int {
	if r.base != nil {
		return r.base.LiveLen()
	}
	return r.rows.n
}

// batch is a relation's rows end to end in one pointer-free slab: row i
// is cells[i*width:(i+1)*width], and n counts the rows (a scan that
// reads no column still has them). No batch is written once made, so
// relations share slabs freely.
type batch struct {
	width, n int
	cells    []Cell
}

// row returns row i, a view into the slab.
func (b *batch) row(i int) Row {
	return b.cells[i*b.width : (i+1)*b.width : (i+1)*b.width]
}

// slice returns rows [lo, hi), sharing the slab.
func (b *batch) slice(lo, hi int) batch {
	return batch{width: b.width, n: hi - lo, cells: b.cells[lo*b.width : hi*b.width]}
}

// at is c's position in a row whose unit 1 cells start at shift.
func (c *ColRef) at(shift int) int {
	if c.unit == 1 {
		return shift + c.pos
	}
	return c.pos
}

func colRefString(c *ColRef) string {
	if c.Alias != "" {
		return c.Alias + "." + c.Column
	}
	return c.Column
}
