package rel

// The SQL abstract syntax tree. Only the dialect the SPARQL
// translators build is modeled; see the package comment for it.
// The translator builds it directly; ParseQuery reads it from text and
// String (print.go) writes it back.

// Query is a full statement: optional CTEs plus a select body. Bind
// (bind.go) checks it and attaches its bound form: the analysis the
// executor needs on every run, computed once and never written again,
// so a bound Query is shared by concurrent executions. Only a bound
// Query executes.
type Query struct {
	CTEs []CTE
	Body *Select

	bound *boundQuery
}

// CTE is one WITH entry: name AS (select).
type CTE struct {
	Name   string
	Select *Select
}

// Select is a select statement, possibly a UNION ALL chain. Each arm
// of the union is a SelectCore; modifiers apply to the union result.
type Select struct {
	Cores   []*SelectCore
	OrderBy []OrderItem
	Limit   int64 // -1 when absent
	Offset  int64 // 0 when absent
}

// SelectCore is one SELECT ... FROM ... WHERE ... block.
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr // nil when absent
}

// SelectItem is expr AS Alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// FromItem is a table or CTE reference, optionally followed by a
// chain of LEFT OUTER JOINs, or a lateral VALUES item.
type FromItem struct {
	Table   string   // table or CTE name when Lateral is nil
	Lateral *Lateral // TABLE(VALUES …) AS Alias(Cols…)
	Alias   string
	Joins   []JoinClause
}

// Lateral is the DB2 spelling of a lateral unpivot (the paper's
// Fig. 13): TABLE(VALUES (c, c, …), (c, c, …), …) AS L(name, …). It
// yields one row per VALUES row for every row of the FROM item its
// cells refer to. A cell is a qualified column reference or a literal,
// and all column references name the FROM item right before it, a
// base table with no join chain.
type Lateral struct {
	Rows [][]Expr // each len(Cols) wide; *ColRef or *Lit
	Cols []string
}

// JoinClause is a LEFT OUTER JOIN hanging off a FromItem; Right is a
// table or CTE reference.
type JoinClause struct {
	Right FromItem
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is a SQL expression node.
type Expr interface{ exprNode() }

// ColRef references alias.column inside a select core, or a bare
// output column name in ORDER BY. Bind also records both identifiers
// lower-cased and the slot the reference reads (bind.go): position pos
// among the cells of its core's unit unit, or for an ORDER BY key, pos
// is the output column; pos is -1 for a reference no row is read for
// (a lateral cell, a dead item's).
type ColRef struct {
	Alias  string // "" in ORDER BY
	Column string

	alias, column string
	unit, pos     int
}

// Lit is a literal constant value.
type Lit struct{ V Value }

// BinOp is a binary operation. Op is one of: = != < <= > >= + - * /.
type BinOp struct {
	Op   string
	L, R Expr
}

// BoolOp is AND or OR over two or more operands, n-ary as written:
// `a OR b OR c` is one BoolOp, `(a OR b) OR c` two.
type BoolOp struct {
	Op   string // "AND" or "OR"
	Args []Expr
}

// UnOp is NOT; a negative number is a literal.
type UnOp struct {
	Op string
	X  Expr
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Not bool
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // nil means NULL
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// FuncCall is a scalar function call; COALESCE is handled here too.
// Name is kept as written and matched case-insensitively.
type FuncCall struct {
	Name string
	Args []Expr
}

func (*ColRef) exprNode()     {}
func (*Lit) exprNode()        {}
func (*BinOp) exprNode()      {}
func (*BoolOp) exprNode()     {}
func (*UnOp) exprNode()       {}
func (*IsNullExpr) exprNode() {}
func (*CaseExpr) exprNode()   {}
func (*FuncCall) exprNode()   {}

// conjuncts splits an expression on top-level ANDs.
func conjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BoolOp); ok && b.Op == "AND" {
		for _, a := range b.Args {
			out = conjuncts(a, out)
		}
		return out
	}
	return append(out, e)
}

// colRefs appends every column reference in e to out, in source order.
func colRefs(e Expr, out []*ColRef) []*ColRef {
	eachColRef(e, func(c *ColRef) { out = append(out, c) })
	return out
}

// eachColRef calls f on every column reference in e, in source order.
func eachColRef(e Expr, f func(*ColRef)) {
	eachExpr(e, func(x Expr) {
		if c, ok := x.(*ColRef); ok {
			f(c)
		}
	})
}

// eachExpr calls f on e and every expression under it, in source
// order, parents first. A nil e is none.
func eachExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *BinOp:
		eachExpr(x.L, f)
		eachExpr(x.R, f)
	case *BoolOp:
		for _, a := range x.Args {
			eachExpr(a, f)
		}
	case *UnOp:
		eachExpr(x.X, f)
	case *IsNullExpr:
		eachExpr(x.X, f)
	case *CaseExpr:
		for _, w := range x.Whens {
			eachExpr(w.Cond, f)
			eachExpr(w.Result, f)
		}
		eachExpr(x.Else, f)
	case *FuncCall:
		for _, a := range x.Args {
			eachExpr(a, f)
		}
	}
}
