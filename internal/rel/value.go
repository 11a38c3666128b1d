// Package rel implements the relational substrate that stands in for
// IBM DB2 in this reproduction: in-memory tables of int64 ids with hash
// indexes, the SQL dialect the SPARQL translators build, and a
// cost-aware executor that performs filter pushdown, index lookups,
// index, hash and nested-loop joins.
//
// The paper (Bornea et al., SIGMOD 2013) treats SQL as "a procedural
// implementation language" for SPARQL plans; this package supplies the
// machine that runs that language. A statement is a Query AST, built
// in code by a translator or read from text by ParseQuery, and Bind
// makes it executable. Query.String prints it back as SQL, the text
// EXPLAIN shows. The dialect is exactly:
//
//   - WITH CTEs, each a single SELECT core or a UNION ALL of cores;
//   - SELECT [DISTINCT], then ORDER BY, LIMIT and OFFSET on a select;
//   - every select item is expr AS name, and expr is id-valued: a
//     column, NULL, an integer literal, a CASE whose every THEN and ELSE
//     is id-valued, or a COALESCE of id-valued arguments;
//   - every FROM item is name AS alias, optionally followed by
//     LEFT OUTER JOIN name AS alias ON cond chains; a core has one or
//     two such items (a lateral apart), comma-joined under WHERE;
//   - a lateral TABLE(VALUES (c, …), …) AS L(name, …) correlates to the
//     FROM item right before it, a base table with no join chain, and
//     nothing hangs off the lateral; a cell is an integer literal, NULL
//     or a column of that table;
//   - inside a core every column is alias.column; ORDER BY keys name
//     output columns bare;
//   - expressions are literals (negative numbers included),
//     = != <> < <= > >= + - * /, AND, OR, NOT, IS [NOT] NULL, searched
//     CASE, COALESCE and calls of the functions a DB registers.
//
// ParseQuery and Bind reject anything else with an error naming the
// shape. A row is a slice of Cells, 8-byte ids with NULL a reserved
// sentinel, and so holds no pointer the GC must scan: joins, DISTINCT
// and index probes compare ids. A Value, which can also be a float,
// string or bool, lives only inside an expression, such as a WHERE
// conjunct or an ORDER BY key: a column reference lifts its Cell into
// one.
package rel

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Cell is one cell of a row: an id, or NULL.
type Cell struct{ I int64 }

// nullID is the id of the NULL cell: below every term id (from 1) and
// list id (from dict.LidBase), and Bind rejects it as a literal.
const nullID = math.MinInt64

// NullCell is the NULL cell.
var NullCell = Cell{I: nullID}

// ID returns the cell holding id i.
func ID(i int64) Cell { return Cell{I: i} }

// IsNull reports whether c is NULL.
func (c Cell) IsNull() bool { return c.I == nullID }

// Value lifts c into an expression value: an Int, or Null.
func (c Cell) Value() Value {
	if c.IsNull() {
		return Null
	}
	return Int(c.I)
}

// String renders the cell like its Value.
func (c Cell) String() string { return c.Value().String() }

// cell lowers v, an id-valued result (Bind's idValued), into a Cell.
func (v Value) cell() Cell {
	if v.K != KindInt {
		return NullCell
	}
	return Cell{I: v.I}
}

// Kind enumerates the runtime value kinds.
type Kind uint8

const (
	// KindNull is the SQL NULL.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit float.
	KindFloat
	// KindString is a string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is one SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Truth reports whether v counts as true in a WHERE context (SQL
// three-valued logic collapses UNKNOWN to false at the filter).
func (v Value) Truth() bool { return v.K == KindBool && v.I != 0 }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	}
	return 0, false
}

// String renders the value for debugging and result printing.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two non-null values: -1, 0, +1. Values of different
// families order by kind (numeric < string < bool). Returns false if
// either side is NULL. Ints, and floats with an integral value, compare
// exactly as int64s: through float64, an id above 2^53 would equal its
// neighbours.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.K == KindInt && b.K == KindInt {
		return cmp.Compare(a.I, b.I), true
	}
	af, aNum := a.AsFloat()
	bf, bNum := b.AsFloat()
	if aNum && bNum {
		ia, aInt := integral(a)
		ib, bInt := integral(b)
		if aInt && bInt {
			return cmp.Compare(ia, ib), true
		}
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		return 0, true
	}
	if a.K == KindString && b.K == KindString {
		return strings.Compare(a.S, b.S), true
	}
	if a.K == KindBool && b.K == KindBool {
		switch {
		case a.I < b.I:
			return -1, true
		case a.I > b.I:
			return 1, true
		}
		return 0, true
	}
	ra, rb := kindRank(a.K), kindRank(b.K)
	switch {
	case ra < rb:
		return -1, true
	case ra > rb:
		return 1, true
	}
	return 0, true
}

func kindRank(k Kind) int {
	switch k {
	case KindInt, KindFloat:
		return 0
	case KindString:
		return 1
	case KindBool:
		return 2
	}
	return 3
}

// integral returns v as an int64 when it is an int or a float with an
// integral value.
func integral(v Value) (int64, bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return int64(v.F), true
		}
	}
	return 0, false
}

// Row is one tuple.
type Row []Cell

// NullRow returns a row of n NULL cells.
func NullRow(n int) Row {
	r := make(Row, n)
	for i := range r {
		r[i] = NullCell
	}
	return r
}
