package rel

import (
	"fmt"
	"math"
	"strings"
)

// Expression compilation: the executor's one expression evaluator.
// Each expression is compiled into a closure tree over the slots Bind
// fixed (bind.go): a column reference reads its unit's cell at a
// position known before the query runs, and per-row evaluation is
// direct calls with no dispatch on the AST. The translator's SQL
// evaluates the same small expressions (CASE WHEN pred = k THEN val,
// COALESCE, OR-chains of integer equalities) over many thousands of
// rows.
//
// Compiled closures are immutable and keep no per-row state, so one
// compiled expression may be shared by all morsel workers.
//
// An unknown function compiles into a closure that returns the error
// when *evaluated*, so a call inside a never-taken branch stays silent.

// compiledExpr evaluates an expression against one row of the layout
// it was compiled for.
type compiledExpr func(row Row) (Value, error)

func errExpr(err error) compiledExpr {
	return func(Row) (Value, error) { return Null, err }
}

// compileExpr compiles e for rows whose unit 1 cells start at shift:
// 0 for the rows of one unit (or the output rows ORDER BY reads), unit
// 0's width for the joined row.
func (db *DB) compileExpr(e Expr, shift int) compiledExpr {
	switch x := e.(type) {
	case *Lit:
		v := x.V
		return func(Row) (Value, error) { return v, nil }
	case *ColRef:
		i := x.at(shift)
		return func(r Row) (Value, error) { return r[i].Value(), nil }
	case *BinOp:
		return db.compileBinOp(x, shift)
	case *BoolOp:
		return db.compileBoolOp(x, shift)
	case *UnOp: // NOT, the one unary operator Bind accepts
		sub := db.compileExpr(x.X, shift)
		return func(r Row) (Value, error) {
			v, err := sub(r)
			if err != nil || v.IsNull() {
				return Null, err
			}
			return Bool(!v.Truth()), nil
		}
	case *IsNullExpr:
		sub := db.compileExpr(x.X, shift)
		not := x.Not
		return func(r Row) (Value, error) {
			v, err := sub(r)
			if err != nil {
				return Null, err
			}
			return Bool(v.IsNull() != not), nil
		}
	case *CaseExpr:
		conds := make([]compiledExpr, len(x.Whens))
		results := make([]compiledExpr, len(x.Whens))
		for i, w := range x.Whens {
			conds[i] = db.compileExpr(w.Cond, shift)
			results[i] = db.compileExpr(w.Result, shift)
		}
		var elseC compiledExpr
		if x.Else != nil {
			elseC = db.compileExpr(x.Else, shift)
		}
		return func(r Row) (Value, error) {
			for i, cond := range conds {
				v, err := cond(r)
				if err != nil {
					return Null, err
				}
				if v.Truth() {
					return results[i](r)
				}
			}
			if elseC != nil {
				return elseC(r)
			}
			return Null, nil
		}
	case *FuncCall:
		args := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = db.compileExpr(a, shift)
		}
		if strings.EqualFold(x.Name, "coalesce") {
			return func(r Row) (Value, error) {
				for _, a := range args {
					v, err := a(r)
					if err != nil {
						return Null, err
					}
					if !v.IsNull() {
						return v, nil
					}
				}
				return Null, nil
			}
		}
		f, ok := db.function(x.Name)
		if !ok {
			return errExpr(fmt.Errorf("sql: unknown function %q", x.Name))
		}
		return func(r Row) (Value, error) {
			vals := make([]Value, len(args))
			for i, a := range args {
				v, err := a(r)
				if err != nil {
					return Null, err
				}
				vals[i] = v
			}
			return f(vals)
		}
	}
	return errExpr(fmt.Errorf("sql: unhandled expression %T", e))
}

// compileBoolOp compiles an n-ary AND or OR under SQL's three-valued
// logic as the left-deep chain of binary operations it equals.
func (db *DB) compileBoolOp(x *BoolOp, shift int) compiledExpr {
	acc := db.compileExpr(x.Args[0], shift)
	for _, a := range x.Args[1:] {
		l, r := acc, db.compileExpr(a, shift)
		switch x.Op {
		case "AND":
			acc = func(row Row) (Value, error) {
				lv, err := l(row)
				if err != nil {
					return Null, err
				}
				if !lv.IsNull() && !lv.Truth() {
					return Bool(false), nil
				}
				rv, err := r(row)
				if err != nil {
					return Null, err
				}
				if !rv.IsNull() && !rv.Truth() {
					return Bool(false), nil
				}
				if lv.IsNull() || rv.IsNull() {
					return Null, nil
				}
				return Bool(true), nil
			}
		case "OR":
			acc = func(row Row) (Value, error) {
				lv, err := l(row)
				if err != nil {
					return Null, err
				}
				if lv.Truth() {
					return Bool(true), nil
				}
				rv, err := r(row)
				if err != nil {
					return Null, err
				}
				if rv.Truth() {
					return Bool(true), nil
				}
				if lv.IsNull() || rv.IsNull() {
					return Null, nil
				}
				return Bool(false), nil
			}
		default:
			return errExpr(fmt.Errorf("sql: unknown boolean op %q", x.Op))
		}
	}
	return acc
}

func (db *DB) compileBinOp(x *BinOp, shift int) compiledExpr {
	// The translator's dominant predicate is `T.predN = <int>`:
	// specialize column-vs-integer-literal comparison down to a direct
	// slot read and int compare.
	if x.Op == "=" || x.Op == "!=" {
		if ce := db.compileIntEquality(x, shift); ce != nil {
			return ce
		}
	}
	l, r := db.compileExpr(x.L, shift), db.compileExpr(x.R, shift)
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		op := x.Op
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			return compared(op, lv, rv), nil
		}
	case "+", "-", "*", "/":
		op := x.Op
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			return arith(op, lv, rv)
		}
	}
	return errExpr(fmt.Errorf("sql: unknown binary op %q", x.Op))
}

// compileIntEquality specializes `col = <intlit>` and `col != <intlit>`
// (either side) into a direct comparison of the column's cell; nil when
// the shape does not match.
func (db *DB) compileIntEquality(x *BinOp, shift int) compiledExpr {
	c, want, ok := colInt(x)
	if !ok {
		return nil
	}
	i := c.at(shift)
	eq := x.Op == "="
	return func(r Row) (Value, error) {
		v := r[i]
		if v.IsNull() {
			return Null, nil
		}
		return Bool((v.I == want) == eq), nil
	}
}

// colInt matches a column against an integer literal, either side.
func colInt(x *BinOp) (*ColRef, int64, bool) {
	col, lit := x.L, x.R
	if _, ok := col.(*ColRef); !ok {
		col, lit = lit, col
	}
	c, isCol := col.(*ColRef)
	l, isLit := lit.(*Lit)
	if !isCol || !isLit || l.V.K != KindInt {
		return nil, 0, false
	}
	return c, l.V.I, true
}

// intEquality matches `col = <integer literal>`, either way round: the
// shape index lookups and the vectorized scan answer.
func intEquality(e Expr) (*ColRef, int64, bool) {
	if x, ok := e.(*BinOp); ok && x.Op == "=" {
		return colInt(x)
	}
	return nil, 0, false
}

// compared is the SQL comparison a op b. NaN is unordered: every
// comparison with it is false but !=, which is true. Compare itself
// keeps NaN in its order, equal to every number, for ORDER BY.
func compared(op string, a, b Value) Value {
	c, ok := Compare(a, b)
	if !ok {
		return Null
	}
	if isNaN(a) || isNaN(b) {
		return Bool(op == "!=")
	}
	switch op {
	case "=":
		return Bool(c == 0)
	case "!=":
		return Bool(c != 0)
	case "<":
		return Bool(c < 0)
	case "<=":
		return Bool(c <= 0)
	case ">":
		return Bool(c > 0)
	}
	return Bool(c >= 0)
}

func isNaN(v Value) bool { return v.K == KindFloat && math.IsNaN(v.F) }

// arith applies a binary arithmetic op: NULL in, NULL out; int op int
// stays int; anything else numeric is float; division by zero is NULL.
func arith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null, nil
	}
	if l.K == KindInt && r.K == KindInt {
		switch op {
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
	switch op {
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
	return Null, fmt.Errorf("sql: unknown binary op %q", op)
}

// compilePred compiles a conjunct list into a single keep/drop
// predicate: true iff every conjunct evaluates truthy.
func (db *DB) compilePred(conds []Expr, shift int) func(Row) (bool, error) {
	compiled := make([]compiledExpr, len(conds))
	for i, c := range conds {
		compiled[i] = db.compileExpr(c, shift)
	}
	return func(r Row) (bool, error) {
		for _, c := range compiled {
			v, err := c(r)
			if err != nil {
				return false, err
			}
			if !v.Truth() {
				return false, nil
			}
		}
		return true, nil
	}
}
