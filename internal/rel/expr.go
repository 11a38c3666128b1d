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
// Unqualified lookups resolve by unique name across the aliases.
type relation struct {
	cols    []relCol
	rows    []Row
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
	// rows is nil and materialize routes through the vectorized scan
	// (vecscan.go) instead of copying the table up front. Size the
	// relation with rowCount, not len(rows).
	scan bool
	// unpivot is set on a base scan that carries a fused lateral item
	// (unpivot.go): cols[len(src):] are the lateral's columns, which no
	// table read fills — the operator that runs the scan expands each
	// row id into its pairs.
	unpivot *unpivot
}

// rowCount is the relation's input cardinality for plan sizing: the
// base table's live row count for an unmaterialized scan (an upper
// bound when filters are pending), len(rows) otherwise.
func (r *relation) rowCount() int {
	if r.scan {
		return r.base.LiveLen()
	}
	return len(r.rows)
}

// colIndex resolves a column reference to a position, or -1.
func (r *relation) colIndex(c *ColRef) int {
	alias, col := c.alias, c.column
	if alias != "" {
		for i, rc := range r.cols {
			if rc.name == col && rc.alias == alias {
				return i
			}
		}
		return -1
	}
	// Unqualified: exact match first, then unique match across aliases.
	found := -1
	for i, rc := range r.cols {
		if rc.name != col {
			continue
		}
		if rc.alias == "" {
			return i
		}
		if found >= 0 {
			return -1 // ambiguous
		}
		found = i
	}
	return found
}

func colRefString(c *ColRef) string {
	if c.Alias != "" {
		return c.Alias + "." + c.Column
	}
	return c.Column
}
