package translator

import (
	"fmt"
	"strconv"

	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
)

// filterExpr translates a SPARQL FILTER expression into a SQL boolean
// expression. vars maps bound variables to the columns holding their
// dictionary ids; unbound variables become NULL (SPARQL type errors
// collapse to false at the filter, matching our engine's three-valued
// WHERE).
func (g *Gen) filterExpr(e sparql.Expr, vars map[string]rel.ColRef) (rel.Expr, error) {
	switch x := e.(type) {
	case *sparql.EBin:
		switch x.Op {
		case "&&", "||":
			l, err := g.filterExpr(x.L, vars)
			if err != nil {
				return nil, err
			}
			r, err := g.filterExpr(x.R, vars)
			if err != nil {
				return nil, err
			}
			if x.Op == "&&" {
				return And(l, r), nil
			}
			return Or(l, r), nil
		case "=", "!=", "<", "<=", ">", ">=":
			return g.comparison(x, vars)
		}
		return nil, fmt.Errorf("translator: unsupported filter operator %q", x.Op)
	case *sparql.EUn:
		if x.Op == "!" {
			inner, err := g.filterExpr(x.X, vars)
			if err != nil {
				return nil, err
			}
			return &rel.UnOp{Op: "NOT", X: inner}, nil
		}
		return nil, fmt.Errorf("translator: unary %q not boolean", x.Op)
	case *sparql.ECall:
		return g.callExpr(x, vars)
	case *sparql.EVar:
		// Effective boolean value of a bare variable (SPARQL 1.1
		// §17.2.2). An unbound variable, like a term with no boolean
		// value, is an error: NULL, which a FILTER rejects and NOT
		// keeps.
		c, ok := ref(vars, x.Name)
		if !ok {
			return Null, nil
		}
		return call("debv", c), nil
	}
	return nil, fmt.Errorf("translator: unsupported filter expression %T", e)
}

// comparison handles = != < <= > >= in one of three modes: string
// comparison when a string-returning builtin is involved, numeric when
// a numeric literal or arithmetic is, and otherwise id equality for =
// and != and term ordering (dcmp) for the ordering operators.
func (g *Gen) comparison(x *sparql.EBin, vars map[string]rel.ColRef) (rel.Expr, error) {
	operands, byTerm := g.termExpr, true
	switch {
	case stringish(x.L) || stringish(x.R):
		operands, byTerm = g.strExpr, false
	case numericish(x.L) || numericish(x.R):
		operands, byTerm = g.numExpr, false
	case x.Op == "=" || x.Op == "!=":
		return g.idCompare(x.Op, x.L, x.R, vars)
	}
	l, err := operands(x.L, vars)
	if err != nil {
		return nil, err
	}
	r, err := operands(x.R, vars)
	if err != nil {
		return nil, err
	}
	if byTerm {
		return binop(x.Op, call("dcmp", l, r), IntLit(0)), nil
	}
	return binop(x.Op, l, r), nil
}

// idCompare is a = b or a != b over term ids. Two constants compare as
// terms here, since every constant absent from the dictionary has the
// id -1.
func (g *Gen) idCompare(op string, a, b sparql.Expr, vars map[string]rel.ColRef) (rel.Expr, error) {
	if l, ok := a.(*sparql.ELit); ok {
		if r, ok := b.(*sparql.ELit); ok {
			return &rel.Lit{V: rel.Bool((l.Term == r.Term) == (op == "="))}, nil
		}
	}
	l, err := g.idExpr(a, vars)
	if err != nil {
		return nil, err
	}
	r, err := g.idExpr(b, vars)
	if err != nil {
		return nil, err
	}
	return binop(op, l, r), nil
}

func (g *Gen) callExpr(x *sparql.ECall, vars map[string]rel.ColRef) (rel.Expr, error) {
	switch x.Name {
	case "bound":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("translator: bound() wants 1 argument")
		}
		v, ok := x.Args[0].(*sparql.EVar)
		if !ok {
			return nil, fmt.Errorf("translator: bound() wants a variable")
		}
		c, bound := ref(vars, v.Name)
		if !bound {
			return falseLit, nil
		}
		return &rel.IsNullExpr{X: c, Not: true}, nil
	case "regex", "langmatches":
		fn, most := "regexmatch", 3
		if x.Name == "langmatches" {
			fn, most = "langmatches", 2
		}
		if len(x.Args) < 2 || len(x.Args) > most {
			return nil, fmt.Errorf("translator: %s() called with %d arguments", x.Name, len(x.Args))
		}
		args := make([]rel.Expr, len(x.Args))
		for i, a := range x.Args {
			s, err := g.strExpr(a, vars)
			if err != nil {
				return nil, err
			}
			args[i] = s
		}
		return call(fn, args...), nil
	case "isiri", "isuri", "isliteral", "isblank":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("translator: %s() wants 1 argument", x.Name)
		}
		id, err := g.termExpr(x.Args[0], vars)
		if err != nil {
			return nil, err
		}
		fn := map[string]string{"isiri": "disiri", "isuri": "disiri", "isliteral": "disliteral", "isblank": "disblank"}[x.Name]
		return call(fn, id), nil
	case "sameterm":
		if len(x.Args) != 2 {
			return nil, fmt.Errorf("translator: sameterm() wants 2 arguments")
		}
		return g.idCompare("=", x.Args[0], x.Args[1], vars)
	}
	return nil, fmt.Errorf("translator: unsupported builtin %q", x.Name)
}

// idExpr is the dictionary id of a term-valued operand compared by id
// equality. A constant absent from the dictionary is -1, which equals
// no stored id, as in a triple pattern (Gen.IDOf).
func (g *Gen) idExpr(e sparql.Expr, vars map[string]rel.ColRef) (rel.Expr, error) {
	if x, ok := e.(*sparql.ELit); ok {
		return IntLit(g.IDOf(x.Term)), nil
	}
	return g.termExpr(e, vars)
}

// termExpr is a term-valued operand as a value function's argument: a
// variable's id column, or a constant's id. A constant absent from the
// dictionary is passed as its term key (rdf.Term.Key) in a string
// literal, which the value functions read in place, so compiling a
// query never writes the dictionary.
func (g *Gen) termExpr(e sparql.Expr, vars map[string]rel.ColRef) (rel.Expr, error) {
	switch x := e.(type) {
	case *sparql.EVar:
		if c, ok := ref(vars, x.Name); ok {
			return c, nil
		}
		return Null, nil
	case *sparql.ELit:
		if id, ok := g.backend.LookupID(x.Term); ok {
			return IntLit(id), nil
		}
		return strLit(x.Term.Key()), nil
	}
	return nil, fmt.Errorf("translator: operand %T is not term-valued", e)
}

// strExpr is the string value of an operand.
func (g *Gen) strExpr(e sparql.Expr, vars map[string]rel.ColRef) (rel.Expr, error) {
	switch x := e.(type) {
	case *sparql.EVar:
		if c, ok := ref(vars, x.Name); ok {
			return call("dstr", c), nil
		}
		return Null, nil
	case *sparql.ELit:
		return strLit(x.Term.Value), nil
	case *sparql.ECall:
		var fn string
		switch x.Name {
		case "str":
			fn = "dstr"
		case "lang":
			fn = "dlang"
		case "datatype":
			fn = "ddt"
		default:
			return nil, fmt.Errorf("translator: operand %T is not string-valued", e)
		}
		id, err := g.termExpr(x.Args[0], vars)
		if err != nil {
			return nil, err
		}
		return call(fn, id), nil
	}
	return nil, fmt.Errorf("translator: operand %T is not string-valued", e)
}

// numExpr is the numeric value of an operand, including filter
// arithmetic.
func (g *Gen) numExpr(e sparql.Expr, vars map[string]rel.ColRef) (rel.Expr, error) {
	switch x := e.(type) {
	case *sparql.EVar:
		if c, ok := ref(vars, x.Name); ok {
			return call("dnum", c), nil
		}
		return Null, nil
	case *sparql.ELit:
		return numLit(x.Term)
	case *sparql.EBin:
		switch x.Op {
		case "+", "-", "*", "/":
			l, err := g.numExpr(x.L, vars)
			if err != nil {
				return nil, err
			}
			r, err := g.numExpr(x.R, vars)
			if err != nil {
				return nil, err
			}
			return binop(x.Op, l, r), nil
		}
	case *sparql.EUn:
		if x.Op == "-" {
			inner, err := g.numExpr(x.X, vars)
			if err != nil {
				return nil, err
			}
			return binop("-", IntLit(0), inner), nil
		}
	}
	return nil, fmt.Errorf("translator: operand %T is not numeric", e)
}

// numLit is the value of a numeric literal: an integer when its lexical
// form is one within int64, else a float (xsd:double's INF and NaN
// included).
func numLit(t rdf.Term) (rel.Expr, error) {
	if t.Kind == rdf.Literal {
		if n, err := strconv.ParseInt(t.Value, 10, 64); err == nil {
			return IntLit(n), nil
		}
	}
	if f, ok := t.Float(); ok {
		return &rel.Lit{V: rel.Float(f)}, nil
	}
	return nil, fmt.Errorf("translator: literal %s is not numeric", t)
}

// ref returns a new reference to the column holding variable name;
// false when the variable is unbound.
func ref(vars map[string]rel.ColRef, name string) (*rel.ColRef, bool) {
	c, ok := vars[name]
	return &c, ok
}

// binop is the binary operation l op r.
func binop(op string, l, r rel.Expr) rel.Expr { return &rel.BinOp{Op: op, L: l, R: r} }

func call(fn string, args ...rel.Expr) rel.Expr { return &rel.FuncCall{Name: fn, Args: args} }

func strLit(s string) rel.Expr { return &rel.Lit{V: rel.Str(s)} }

var falseLit = &rel.Lit{V: rel.Bool(false)}

// stringish reports whether the operand forces string-mode comparison.
func stringish(e sparql.Expr) bool {
	c, ok := e.(*sparql.ECall)
	if !ok {
		return false
	}
	switch c.Name {
	case "str", "lang", "datatype":
		return true
	}
	return false
}

// numericish reports whether the operand forces numeric-mode
// comparison: arithmetic, numeric negation, or a numeric literal.
func numericish(e sparql.Expr) bool {
	switch x := e.(type) {
	case *sparql.EBin:
		switch x.Op {
		case "+", "-", "*", "/":
			return true
		}
	case *sparql.EUn:
		return x.Op == "-"
	case *sparql.ELit:
		if x.Term.Kind != rdf.Literal {
			return false
		}
		switch x.Term.Datatype {
		case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
			return true
		}
	}
	return false
}
