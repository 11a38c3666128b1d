package rel

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ParseQuery parses one SQL statement into its AST and binds it.
func ParseQuery(sql string) (*Query, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input starting at %q", p.peek().text)
	}
	if err := Bind(q); err != nil {
		var le *lateralError
		if errors.As(err, &le) {
			return nil, fmt.Errorf("%w (near offset %d)", err, p.latPos[le.lat])
		}
		return nil, err
	}
	return q, nil
}

type sqlParser struct {
	toks []token
	pos  int
	// latPos is the source offset of each lateral item, for Bind's
	// diagnostics.
	latPos map[*Lateral]int
}

func (p *sqlParser) peek() token { return p.toks[p.pos] }
func (p *sqlParser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *sqlParser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *sqlParser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *sqlParser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *sqlParser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *sqlParser) isPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *sqlParser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *sqlParser) query() (*Query, error) {
	q := &Query{}
	if p.acceptKeyword("WITH") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			sel, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			q.CTEs = append(q.CTEs, CTE{Name: name, Select: sel})
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	body, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	q.Body = body
	return q, nil
}

// selectStmt parses a select with optional UNION ALL chain and
// modifiers.
func (p *sqlParser) selectStmt() (*Select, error) {
	s := &Select{Limit: -1}
	for {
		core, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		s.Cores = append(s.Cores, core)
		if !p.acceptKeyword("UNION") {
			break
		}
		if !p.acceptKeyword("ALL") {
			return nil, p.errf("UNION without ALL is not supported")
		}
		if p.isPunct("(") {
			return nil, p.errf("a parenthesized UNION ALL arm is not supported")
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		s.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		s.Offset = n
	}
	return s, nil
}

func (p *sqlParser) intLiteral() (int64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected number, got %q", t.text)
	}
	p.pos++
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *sqlParser) selectCore() (*SelectCore, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	core.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.fromItem()
		if err != nil {
			return nil, err
		}
		core.From = append(core.From, fi)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	return core, nil
}

func (p *sqlParser) selectItem() (SelectItem, error) {
	if p.isPunct("*") || p.peek().kind == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].text == "." && p.toks[p.pos+2].text == "*" {
		return SelectItem{}, p.errf("a * select item is not supported; name each column as alias.column AS name")
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	if !p.acceptKeyword("AS") {
		return SelectItem{}, p.errf("a select item needs AS name, got %q", p.peek().text)
	}
	name, err := p.ident()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: e, Alias: name}, nil
}

func (p *sqlParser) fromItem() (FromItem, error) {
	fi, err := p.fromPrimary()
	if err != nil {
		return FromItem{}, err
	}
	for {
		switch {
		case p.acceptKeyword("LEFT"):
			if err := p.expectKeyword("OUTER"); err != nil {
				return FromItem{}, err
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return FromItem{}, err
			}
		case p.isKeyword("INNER") || p.isKeyword("JOIN"):
			return FromItem{}, p.errf("INNER JOIN is not supported; write a comma join with a WHERE condition")
		default:
			return fi, nil
		}
		right, err := p.fromPrimary()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return FromItem{}, err
		}
		on, err := p.expr()
		if err != nil {
			return FromItem{}, err
		}
		fi.Joins = append(fi.Joins, JoinClause{Right: right, On: on})
	}
}

// fromPrimary parses a lateral item or name AS alias. Bind checks
// where a lateral item stands.
func (p *sqlParser) fromPrimary() (FromItem, error) {
	if p.atLateral() {
		return p.lateral()
	}
	if p.isPunct("(") {
		return FromItem{}, p.errf("a derived table is not supported; name it in WITH")
	}
	name, err := p.ident()
	if err != nil {
		return FromItem{}, err
	}
	if !p.acceptKeyword("AS") {
		return FromItem{}, p.errf("FROM item %s needs AS alias, got %q", name, p.peek().text)
	}
	alias, err := p.ident()
	if err != nil {
		return FromItem{}, err
	}
	return FromItem{Table: name, Alias: alias}, nil
}

// atLateral reports whether the input continues with `TABLE (`. TABLE
// and VALUES stay ordinary identifiers everywhere else.
func (p *sqlParser) atLateral() bool {
	t := p.peek()
	if t.kind != tokIdent || !strings.EqualFold(t.text, "TABLE") {
		return false
	}
	n := p.toks[p.pos+1]
	return n.kind == tokPunct && n.text == "("
}

// lateral parses TABLE(VALUES (cell, ...), ...) AS alias(col, ...).
// Bind checks the item's shape.
func (p *sqlParser) lateral() (FromItem, error) {
	start := p.peek().pos
	p.pos += 2 // TABLE (
	if t := p.peek(); t.kind != tokIdent || !strings.EqualFold(t.text, "VALUES") {
		return FromItem{}, p.errf("expected VALUES, got %q", t.text)
	}
	p.pos++
	lat := &Lateral{}
	for {
		if err := p.expectPunct("("); err != nil {
			return FromItem{}, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return FromItem{}, err
			}
			row = append(row, e)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return FromItem{}, err
		}
		lat.Rows = append(lat.Rows, row)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return FromItem{}, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return FromItem{}, err
	}
	alias, err := p.ident()
	if err != nil {
		return FromItem{}, err
	}
	if err := p.expectPunct("("); err != nil {
		return FromItem{}, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return FromItem{}, err
		}
		lat.Cols = append(lat.Cols, col)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return FromItem{}, err
	}
	if p.latPos == nil {
		p.latPos = map[*Lateral]int{}
	}
	p.latPos[lat] = start
	return FromItem{Lateral: lat, Alias: alias}, nil
}

// Expression grammar (highest binding last):
//   expr   := orExpr
//   orExpr := andExpr (OR andExpr)*
//   andExpr:= notExpr (AND notExpr)*
//   notExpr:= NOT notExpr | cmpExpr
//   cmpExpr:= addExpr (( = | != | <> | < | <= | > | >= ) addExpr
//           | IS [NOT] NULL)?
//   addExpr:= mulExpr (( + | - ) mulExpr)*
//   mulExpr:= unary (( * | / ) unary)*
//   unary  := - number | primary
//   primary:= literal | CASE ... END | func(args) | colref | ( expr )

func (p *sqlParser) expr() (Expr, error) { return p.orExpr() }

func (p *sqlParser) orExpr() (Expr, error) { return p.boolChain("OR", p.andExpr) }

func (p *sqlParser) andExpr() (Expr, error) { return p.boolChain("AND", p.notExpr) }

// boolChain parses operand (op operand)*; a chain of two or more is
// one n-ary BoolOp, and a parenthesized chain stays its own operand.
func (p *sqlParser) boolChain(op string, operand func() (Expr, error)) (Expr, error) {
	l, err := operand()
	if err != nil || !p.isKeyword(op) {
		return l, err
	}
	args := []Expr{l}
	for p.acceptKeyword(op) {
		r, err := operand()
		if err != nil {
			return nil, err
		}
		args = append(args, r)
	}
	return &BoolOp{Op: op, Args: args}, nil
}

func (p *sqlParser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "NOT", X: x}, nil
	}
	return p.cmpExpr()
}

func (p *sqlParser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.pos++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &BinOp{Op: op, L: l, R: r}, nil
		}
	}
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: not}, nil
	}
	if p.isKeyword("IN") || p.isKeyword("NOT") && p.toks[p.pos+1].text == "IN" {
		return nil, p.errf("an IN list is not supported; write an OR of equalities")
	}
	return l, nil
}

func (p *sqlParser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("+") || p.isPunct("-") {
		op := p.next().text
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isPunct("/") {
		op := p.next().text
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) unaryExpr() (Expr, error) {
	if p.acceptPunct("-") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("unary minus applies to a number only; write 0 - x")
		}
		// A negative number is one literal.
		p.pos++
		return p.number("-" + t.text)
	}
	return p.primaryExpr()
}

func (p *sqlParser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		return p.number(t.text)
	case tokString:
		p.pos++
		return &Lit{V: Str(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Lit{V: Null}, nil
		case "TRUE":
			p.pos++
			return &Lit{V: Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Lit{V: Bool(false)}, nil
		case "CASE":
			return p.caseExpr()
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokPunct:
		if t.text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q in expression", t.text)
	case tokIdent:
		name := p.next().text
		// function call?
		if p.isPunct("(") {
			p.pos++
			var args []Expr
			if !p.isPunct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.acceptPunct(",") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: name, Args: args}, nil
		}
		// qualified column?
		if p.isPunct(".") {
			p.pos++
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Alias: name, Column: col}, nil
		}
		return &ColRef{Column: name}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

// number parses the text of a numeric literal: a float when it has a
// fraction or an exponent, an int64 otherwise. A float beyond the
// float64 range is ±Inf, which is how String prints one.
func (p *sqlParser) number(text string) (Expr, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil && !errors.Is(err, strconv.ErrRange) {
			return nil, p.errf("bad number %q", text)
		}
		return &Lit{V: Float(f)}, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, p.errf("bad number %q", text)
	}
	return &Lit{V: Int(n)}, nil
}

func (p *sqlParser) caseExpr() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
