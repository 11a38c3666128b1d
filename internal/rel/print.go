package rel

import (
	"math"
	"strconv"
	"strings"
)

// String prints q as SQL text that ParseQuery reads back into an equal
// AST. It is a rendering for EXPLAIN and tests: execution never reads
// it. The layout is the translator's CTE chain (one WITH entry per
// line, UNION ALL arms on lines of their own) and the parentheses are
// the AST's: every AND/OR chain but a WHERE or ON clause's top-level
// AND, and every arithmetic operation, is parenthesized, and NOT takes
// a parenthesized operand.
//
// A NaN constant prints as NaN, which does not read back (SQL has no
// NaN literal); ±Inf prints as ±1e999, which reads back as ±Inf.
func (q *Query) String() string {
	var w printer
	w.Grow(512)
	if len(q.CTEs) > 0 {
		w.WriteString("WITH ")
		for i, cte := range q.CTEs {
			if i > 0 {
				w.WriteString(",\n")
			}
			w.WriteString(cte.Name)
			w.WriteString(" AS (")
			w.selectStmt(cte.Select)
			w.WriteByte(')')
		}
		w.WriteByte('\n')
	}
	w.selectStmt(q.Body)
	return w.String()
}

type printer struct{ strings.Builder }

func (w *printer) selectStmt(s *Select) {
	for i, core := range s.Cores {
		if i > 0 {
			w.WriteString("\nUNION ALL\n")
		}
		w.core(core)
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			w.WriteString(" ORDER BY ")
		} else {
			w.WriteString(", ")
		}
		w.expr(o.Expr)
		if o.Desc {
			w.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		w.WriteString(" LIMIT ")
		w.int(s.Limit)
	}
	if s.Offset > 0 {
		w.WriteString(" OFFSET ")
		w.int(s.Offset)
	}
}

func (w *printer) core(c *SelectCore) {
	w.WriteString("SELECT ")
	if c.Distinct {
		w.WriteString("DISTINCT ")
	}
	for i, item := range c.Items {
		if i > 0 {
			w.WriteString(", ")
		}
		w.expr(item.Expr)
		w.as(item.Alias)
	}
	w.WriteString(" FROM ")
	for i, f := range c.From {
		if i > 0 {
			w.WriteString(", ")
		}
		w.from(f)
	}
	if c.Where != nil {
		w.WriteString(" WHERE ")
		w.cond(c.Where)
	}
}

func (w *printer) as(alias string) {
	w.WriteString(" AS ")
	w.WriteString(alias)
}

func (w *printer) from(f FromItem) {
	switch {
	case f.Lateral != nil:
		w.WriteString("TABLE(VALUES ")
		for i, row := range f.Lateral.Rows {
			if i > 0 {
				w.WriteString(", ")
			}
			w.WriteByte('(')
			w.list(row)
			w.WriteByte(')')
		}
		w.WriteByte(')')
		w.as(f.Alias)
		w.WriteByte('(')
		for i, c := range f.Lateral.Cols {
			if i > 0 {
				w.WriteString(", ")
			}
			w.WriteString(c)
		}
		w.WriteByte(')')
	default:
		w.WriteString(f.Table)
		w.as(f.Alias)
	}
	for _, j := range f.Joins {
		w.WriteString(" LEFT OUTER JOIN ")
		w.from(j.Right)
		w.WriteString(" ON ")
		w.cond(j.On)
	}
}

// cond prints a WHERE or ON clause, whose top-level AND chain needs no
// parentheses.
func (w *printer) cond(e Expr) {
	if b, ok := e.(*BoolOp); ok && b.Op == "AND" {
		w.chain(b)
		return
	}
	w.expr(e)
}

// chain prints b's operands joined by its operator. Under AND or OR,
// a comparison, IS or NOT needs no parentheses, and a nested chain
// brings its own.
func (w *printer) chain(b *BoolOp) {
	for i, a := range b.Args {
		if i > 0 {
			w.WriteByte(' ')
			w.WriteString(b.Op)
			w.WriteByte(' ')
		}
		w.expr(a)
	}
}

func (w *printer) list(es []Expr) {
	for i, e := range es {
		if i > 0 {
			w.WriteString(", ")
		}
		w.expr(e)
	}
}

// exprString prints e alone, for an error that names it.
func exprString(e Expr) string {
	var w printer
	w.expr(e)
	return w.String()
}

// expr prints e where any expression may stand.
func (w *printer) expr(e Expr) {
	switch x := e.(type) {
	case *ColRef:
		if x.Alias != "" {
			w.WriteString(x.Alias)
			w.WriteByte('.')
		}
		w.WriteString(x.Column)
	case *Lit:
		w.lit(x.V)
	case *BoolOp:
		w.WriteByte('(')
		w.chain(x)
		w.WriteByte(')')
	case *BinOp:
		arith := isArith(x.Op)
		if arith {
			w.WriteByte('(')
		}
		w.operand(x.L)
		w.WriteByte(' ')
		w.WriteString(x.Op)
		w.WriteByte(' ')
		w.operand(x.R)
		if arith {
			w.WriteByte(')')
		}
	case *UnOp:
		w.WriteString("NOT (")
		w.expr(x.X)
		w.WriteByte(')')
	case *IsNullExpr:
		w.operand(x.X)
		if x.Not {
			w.WriteString(" IS NOT NULL")
		} else {
			w.WriteString(" IS NULL")
		}
	case *CaseExpr:
		w.WriteString("CASE")
		for _, wh := range x.Whens {
			w.WriteString(" WHEN ")
			w.expr(wh.Cond)
			w.WriteString(" THEN ")
			w.expr(wh.Result)
		}
		if x.Else != nil {
			w.WriteString(" ELSE ")
			w.expr(x.Else)
		}
		w.WriteString(" END")
	case *FuncCall:
		w.WriteString(x.Name)
		w.WriteByte('(')
		w.list(x.Args)
		w.WriteByte(')')
	}
}

// operand prints e as an operand of a comparison, arithmetic or IS,
// parenthesizing what binds more loosely than they do.
func (w *printer) operand(e Expr) {
	wrap := false
	switch x := e.(type) {
	case *BinOp:
		wrap = !isArith(x.Op) // arithmetic brings its own
	case *UnOp, *IsNullExpr:
		wrap = true
	}
	if wrap {
		w.WriteByte('(')
	}
	w.expr(e)
	if wrap {
		w.WriteByte(')')
	}
}

func isArith(op string) bool { return op == "+" || op == "-" || op == "*" || op == "/" }

func (w *printer) int(n int64) {
	var buf [20]byte
	w.Write(strconv.AppendInt(buf[:0], n, 10))
}

func (w *printer) lit(v Value) {
	switch v.K {
	case KindNull:
		w.WriteString("NULL")
	case KindBool:
		if v.Truth() {
			w.WriteString("TRUE")
		} else {
			w.WriteString("FALSE")
		}
	case KindInt:
		w.int(v.I)
	case KindFloat:
		switch {
		case math.IsNaN(v.F):
			w.WriteString("NaN")
		case math.IsInf(v.F, 1):
			w.WriteString("1e999")
		case math.IsInf(v.F, -1):
			w.WriteString("-1e999")
		default:
			var buf [32]byte
			b := strconv.AppendFloat(buf[:0], v.F, 'g', -1, 64)
			w.Write(b)
			if !strings.ContainsAny(string(b), ".e") {
				w.WriteString(".0") // reads back as a float, not an int
			}
		}
	case KindString:
		w.WriteByte('\'')
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == '\'' {
				w.WriteByte('\'')
			}
			w.WriteByte(v.S[i])
		}
		w.WriteByte('\'')
	}
}
