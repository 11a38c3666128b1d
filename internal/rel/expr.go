package rel

import "fmt"

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
	// row id into its pairs. rowCap > 0 lets that operator stop early.
	unpivot *unpivot
	rowCap  int64
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
	alias, col := c.lowered()
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

// rowCtx provides the row environment for expression evaluation. The
// cache memoizes column-reference resolution across the (typically
// many) rows evaluated against one relation shape; it must not be
// shared across relations.
type rowCtx struct {
	rel   *relation
	row   Row
	db    *DB
	cache map[*ColRef]int
}

// newRowCtx returns a context with resolution caching enabled.
func newRowCtx(rel *relation, db *DB) *rowCtx {
	return &rowCtx{rel: rel, db: db, cache: make(map[*ColRef]int)}
}

// evalExpr evaluates e against ctx.
func evalExpr(e Expr, ctx *rowCtx) (Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.V, nil
	case *ColRef:
		if ctx.rel == nil {
			return Null, fmt.Errorf("sql: column reference %s outside row context", colRefString(x))
		}
		i, cached := -1, false
		if ctx.cache != nil {
			i, cached = ctx.cache[x]
			if !cached {
				i = -1
			}
		}
		if !cached {
			i = ctx.rel.colIndex(x)
			if ctx.cache != nil {
				ctx.cache[x] = i
			}
		}
		if i < 0 {
			return Null, fmt.Errorf("sql: unknown column %s (have %v)", colRefString(x), ctx.rel.cols)
		}
		return ctx.row[i], nil
	case *BinOp:
		return evalBinOp(x, ctx)
	case *UnOp:
		v, err := evalExpr(x.X, ctx)
		if err != nil {
			return Null, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null, nil
			}
			return Bool(!v.Truth()), nil
		case "-":
			switch v.K {
			case KindInt:
				return Int(-v.I), nil
			case KindFloat:
				return Float(-v.F), nil
			case KindNull:
				return Null, nil
			}
			return Null, fmt.Errorf("sql: cannot negate %v", v.K)
		}
		return Null, fmt.Errorf("sql: unknown unary op %q", x.Op)
	case *IsNullExpr:
		v, err := evalExpr(x.X, ctx)
		if err != nil {
			return Null, err
		}
		if x.Not {
			return Bool(!v.IsNull()), nil
		}
		return Bool(v.IsNull()), nil
	case *InExpr:
		v, err := evalExpr(x.X, ctx)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			return Null, nil
		}
		anyNull := false
		for _, item := range x.List {
			iv, err := evalExpr(item, ctx)
			if err != nil {
				return Null, err
			}
			if iv.IsNull() {
				anyNull = true
				continue
			}
			if Equal(v, iv) {
				return Bool(!x.Not), nil
			}
		}
		if anyNull {
			return Null, nil
		}
		return Bool(x.Not), nil
	case *CaseExpr:
		for _, w := range x.Whens {
			cond, err := evalExpr(w.Cond, ctx)
			if err != nil {
				return Null, err
			}
			if cond.Truth() {
				return evalExpr(w.Result, ctx)
			}
		}
		if x.Else != nil {
			return evalExpr(x.Else, ctx)
		}
		return Null, nil
	case *FuncCall:
		if x.Name == "coalesce" {
			for _, a := range x.Args {
				v, err := evalExpr(a, ctx)
				if err != nil {
					return Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return Null, nil
		}
		f, ok := ctx.db.function(x.Name)
		if !ok {
			return Null, fmt.Errorf("sql: unknown function %q", x.Name)
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalExpr(a, ctx)
			if err != nil {
				return Null, err
			}
			args[i] = v
		}
		return f(args)
	}
	return Null, fmt.Errorf("sql: unhandled expression %T", e)
}

func evalBinOp(x *BinOp, ctx *rowCtx) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := evalExpr(x.L, ctx)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && !l.Truth() {
			return Bool(false), nil
		}
		r, err := evalExpr(x.R, ctx)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && !r.Truth() {
			return Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(true), nil
	case "OR":
		l, err := evalExpr(x.L, ctx)
		if err != nil {
			return Null, err
		}
		if l.Truth() {
			return Bool(true), nil
		}
		r, err := evalExpr(x.R, ctx)
		if err != nil {
			return Null, err
		}
		if r.Truth() {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(false), nil
	}
	l, err := evalExpr(x.L, ctx)
	if err != nil {
		return Null, err
	}
	r, err := evalExpr(x.R, ctx)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		c, ok := Compare(l, r)
		if !ok {
			return Null, nil
		}
		switch x.Op {
		case "=":
			return Bool(c == 0), nil
		case "!=":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		case ">=":
			return Bool(c >= 0), nil
		}
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		if l.K == KindInt && r.K == KindInt {
			switch x.Op {
			case "+":
				return Int(l.I + r.I), nil
			case "-":
				return Int(l.I - r.I), nil
			case "*":
				return Int(l.I * r.I), nil
			case "/":
				if r.I == 0 {
					return Null, nil
				}
				return Int(l.I / r.I), nil
			}
		}
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return Null, fmt.Errorf("sql: arithmetic on non-numeric values")
		}
		switch x.Op {
		case "+":
			return Float(lf + rf), nil
		case "-":
			return Float(lf - rf), nil
		case "*":
			return Float(lf * rf), nil
		case "/":
			if rf == 0 {
				return Null, nil
			}
			return Float(lf / rf), nil
		}
	}
	return Null, fmt.Errorf("sql: unknown binary op %q", x.Op)
}

func colRefString(c *ColRef) string {
	if c.Alias != "" {
		return c.Alias + "." + c.Column
	}
	return c.Column
}
