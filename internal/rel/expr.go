package rel

// relCol names one column of a relation: the lower-cased FROM alias
// that qualifies it ("" for the unqualified output of a select) and
// the lower-cased column name.
type relCol struct{ alias, name string }

func (c relCol) String() string {
	if c.alias == "" {
		return c.name
	}
	return c.alias + "." + c.name
}

// relation is a materialized intermediate result during execution.
type relation struct {
	cols    []relCol
	rows    batch
	aliases []string
	// base points at the backing table when this relation is a full
	// scan of it; joins can then use the table's hash indexes (index
	// nested-loop) instead of building a fresh hash. src maps each
	// relation position to its table column: the relation carries only
	// the columns its core references (see bind.go), in schema order,
	// and every read of base goes through Table.reader(src).
	base *Table
	src  []int
	// pending holds single-relation filters that have not been applied
	// yet: base scans defer them so an index nested-loop join can
	// evaluate them per probed row instead of materializing a filtered
	// copy of the whole table. Consumers must call DB.materialize (or
	// check pending per probe) before using rows.
	pending []Expr
	// scan marks an unmaterialized full scan of a base table:
	// rows is empty and materialize routes through the vectorized scan
	// (vecscan.go) instead of copying the table up front. Size the
	// relation with rowCount, not rows.n.
	scan bool
	// unpivot is set on a base scan that carries a fused lateral item
	// (unpivot.go): cols[len(src):] are the lateral's columns, which no
	// table read fills — the operator that runs the scan expands each
	// row id into its pairs.
	unpivot *unpivot
}

// rowCount is the relation's input cardinality for plan sizing: the
// base table's live row count for an unmaterialized scan (an upper
// bound when filters are pending), rows.n otherwise.
func (r *relation) rowCount() int {
	if r.scan {
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

// colIndex resolves a column reference to the position of the column
// with its alias and name, or -1.
func (r *relation) colIndex(c *ColRef) int {
	for i, rc := range r.cols {
		if rc.name == c.column && rc.alias == c.alias {
			return i
		}
	}
	return -1
}

func colRefString(c *ColRef) string {
	if c.Alias != "" {
		return c.Alias + "." + c.Column
	}
	return c.Column
}
