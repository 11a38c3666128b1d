package rel

// The SQL abstract syntax tree. Only the subset used by the SPARQL
// translators is modeled; see the package comment for the inventory.
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

// Select is a select statement, possibly a UNION chain. Each arm of the
// union is a SelectCore; modifiers apply to the union result.
type Select struct {
	Cores    []*SelectCore
	UnionAll []bool // UnionAll[i] says whether the union joining core i and i+1 is UNION ALL
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	Offset   int64 // 0 when absent
}

// SelectCore is one SELECT ... FROM ... WHERE ... block.
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr // nil when absent
}

// SelectItem is either a star (alias may qualify it) or an expression
// with an optional alias.
type SelectItem struct {
	Star      bool
	StarAlias string // for "T.*"
	Expr      Expr
	Alias     string
}

// FromItem is a table reference, subquery or lateral VALUES item,
// optionally followed by a chain of explicit joins.
type FromItem struct {
	Table   string   // table or CTE name when Sub and Lateral are nil
	Sub     *Select  // derived table
	Lateral *Lateral // TABLE(VALUES …) AS Alias(Cols…)
	Alias   string
	Joins   []JoinClause
}

// Lateral is the DB2 spelling of a lateral unpivot (the paper's
// Fig. 13): TABLE(VALUES (c, c, …), (c, c, …), …) AS L(name, …). It
// yields one row per VALUES row for every row of the FROM item its
// cells refer to. A cell is a qualified column reference or a literal,
// and all column references name the same, earlier, FROM alias.
type Lateral struct {
	Rows [][]Expr // each len(Cols) wide; *ColRef or *Lit
	Cols []string
}

// JoinClause is an explicit join hanging off a FromItem.
type JoinClause struct {
	Left  bool // LEFT OUTER JOIN when true, INNER JOIN when false
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

// ColRef references alias.column or a bare column name. Bind also
// records both identifiers lower-cased, the form every relation stores
// its column names in.
type ColRef struct {
	Alias  string // may be ""
	Column string

	alias, column string
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

// UnOp is a unary operation: NOT or - (negation).
type UnOp struct {
	Op string
	X  Expr
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is "x [NOT] IN (e1, e2, ...)".
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr
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
func (*InExpr) exprNode()     {}
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
	switch x := e.(type) {
	case *ColRef:
		f(x)
	case *BinOp:
		eachColRef(x.L, f)
		eachColRef(x.R, f)
	case *BoolOp:
		for _, a := range x.Args {
			eachColRef(a, f)
		}
	case *UnOp:
		eachColRef(x.X, f)
	case *IsNullExpr:
		eachColRef(x.X, f)
	case *InExpr:
		eachColRef(x.X, f)
		for _, a := range x.List {
			eachColRef(a, f)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			eachColRef(w.Cond, f)
			eachColRef(w.Result, f)
		}
		if x.Else != nil {
			eachColRef(x.Else, f)
		}
	case *FuncCall:
		for _, a := range x.Args {
			eachColRef(a, f)
		}
	}
}
