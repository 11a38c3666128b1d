package rel

import (
	"fmt"
	"math"
	"strings"
)

// Expression compilation: the executor's one expression evaluator.
// Each expression is compiled once per relation shape into a closure
// tree: column references resolve to positions at compile time, and
// per-row evaluation is direct calls with no dispatch on the AST. The
// translator's SQL evaluates the same small expressions (CASE WHEN
// pred = k THEN val, COALESCE, OR-chains of integer equalities) over
// many thousands of rows.
//
// Compiled closures are immutable and keep no per-row state, so one
// compiled expression may be shared by all morsel workers.
//
// Problems found during compilation (unknown column, unknown function)
// compile into closures that return the error when *evaluated*, so an
// erroneous sub-expression inside a never-taken branch stays silent.

// compiledExpr evaluates an expression against one row of the shape
// it was compiled for.
type compiledExpr func(row Row) (Value, error)

func errExpr(err error) compiledExpr {
	return func(Row) (Value, error) { return Null, err }
}

// compileExpr compiles e against rel's column shape.
func (db *DB) compileExpr(e Expr, rel *relation) compiledExpr {
	switch x := e.(type) {
	case *Lit:
		v := x.V
		return func(Row) (Value, error) { return v, nil }
	case *ColRef:
		if rel == nil {
			return errExpr(fmt.Errorf("sql: column reference %s outside row context", colRefString(x)))
		}
		i := rel.colIndex(x)
		if i < 0 {
			return errExpr(fmt.Errorf("sql: unknown column %s (have %v)", colRefString(x), rel.cols))
		}
		return func(r Row) (Value, error) { return r[i].Value(), nil }
	case *BinOp:
		return db.compileBinOp(x, rel)
	case *BoolOp:
		return db.compileBoolOp(x, rel)
	case *UnOp: // NOT, the one unary operator Bind accepts
		sub := db.compileExpr(x.X, rel)
		return func(r Row) (Value, error) {
			v, err := sub(r)
			if err != nil || v.IsNull() {
				return Null, err
			}
			return Bool(!v.Truth()), nil
		}
	case *IsNullExpr:
		sub := db.compileExpr(x.X, rel)
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
			conds[i] = db.compileExpr(w.Cond, rel)
			results[i] = db.compileExpr(w.Result, rel)
		}
		var elseC compiledExpr
		if x.Else != nil {
			elseC = db.compileExpr(x.Else, rel)
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
			args[i] = db.compileExpr(a, rel)
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
func (db *DB) compileBoolOp(x *BoolOp, rel *relation) compiledExpr {
	acc := db.compileExpr(x.Args[0], rel)
	for _, a := range x.Args[1:] {
		l, r := acc, db.compileExpr(a, rel)
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

func (db *DB) compileBinOp(x *BinOp, rel *relation) compiledExpr {
	// The translator's dominant predicate is `T.predN = <int>`:
	// specialize column-vs-integer-literal comparison down to a direct
	// slot read and int compare.
	if x.Op == "=" || x.Op == "!=" {
		if ce := db.compileIntEquality(x, rel); ce != nil {
			return ce
		}
	}
	l, r := db.compileExpr(x.L, rel), db.compileExpr(x.R, rel)
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

// compileIntEquality specializes `col = <intlit>` (either side) into a
// direct comparison of the column's cell; nil when the shape does not
// match.
func (db *DB) compileIntEquality(x *BinOp, rel *relation) compiledExpr {
	if rel == nil {
		return nil
	}
	cr, lit := x.L, x.R
	if _, ok := cr.(*ColRef); !ok {
		cr, lit = x.R, x.L
	}
	c, ok := cr.(*ColRef)
	if !ok {
		return nil
	}
	l, ok := lit.(*Lit)
	if !ok || l.V.K != KindInt {
		return nil
	}
	i := rel.colIndex(c)
	if i < 0 {
		return nil // fall back to the generic path's lazy error
	}
	want := l.V.I
	eq := x.Op == "="
	return func(r Row) (Value, error) {
		v := r[i]
		if v.IsNull() {
			return Null, nil
		}
		return Bool((v.I == want) == eq), nil
	}
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
func (db *DB) compilePred(conds []Expr, rel *relation) func(Row) (bool, error) {
	compiled := make([]compiledExpr, len(conds))
	for i, c := range conds {
		compiled[i] = db.compileExpr(c, rel)
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
