package sparql

import (
	"fmt"
	"strings"

	"db2rdf/internal/rdf"
)

// Parse parses a SPARQL query string.
func Parse(in string) (*Query, error) {
	toks, err := lex(in)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: map[string]string{}}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	q.Closures = p.closures
	finalize(q.Where, nil)
	return q, nil
}

// finalize sets parent pointers throughout the pattern tree.
func finalize(p *Pattern, parent *Pattern) {
	p.Parent = parent
	for _, t := range p.Triples {
		t.Parent = p
	}
	for _, c := range p.Children {
		finalize(c, p)
	}
}

type parser struct {
	toks     []token
	pos      int
	prefixes map[string]string
	nextTID  int
	freshN   int
	closures []Closure
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) isPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

// prologue consumes leading PREFIX declarations into p.prefixes. It is
// shared by the query and update grammars (an update may interleave
// prologues between operations).
func (p *parser) prologue() error {
	for p.acceptKeyword("PREFIX") {
		t := p.peek()
		if t.kind != tokPName || !strings.HasSuffix(t.text, ":") && !strings.Contains(t.text, ":") {
			return p.errf("expected prefixed name declaration, got %q", t.text)
		}
		p.pos++
		name := strings.TrimSuffix(t.text, ":")
		if i := strings.IndexByte(t.text, ':'); i >= 0 {
			name = t.text[:i]
		}
		iriTok := p.peek()
		if iriTok.kind != tokIRI {
			return p.errf("expected IRI after PREFIX %s:", name)
		}
		p.pos++
		p.prefixes[name] = iriTok.text
	}
	return nil
}

func (p *parser) query() (*Query, error) {
	q := &Query{Prefixes: p.prefixes, Limit: -1}
	if err := p.prologue(); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("SELECT"):
		if p.acceptKeyword("DISTINCT") {
			q.Distinct = true
		} else {
			p.acceptKeyword("REDUCED")
		}
		if p.acceptPunct("*") {
			q.Star = true
		} else {
			for p.peek().kind == tokVar {
				q.Vars = append(q.Vars, p.next().text)
			}
			if len(q.Vars) == 0 {
				return nil, p.errf("SELECT requires variables or *")
			}
		}
		p.acceptKeyword("WHERE")
		where, err := p.groupGraphPattern()
		if err != nil {
			return nil, err
		}
		q.Where = where
		if err := p.solutionModifiers(q); err != nil {
			return nil, err
		}
	case p.acceptKeyword("ASK"):
		q.Ask = true
		where, err := p.groupGraphPattern()
		if err != nil {
			return nil, err
		}
		q.Where = where
	case p.acceptKeyword("CONSTRUCT"):
		tmpl, err := p.constructTemplate()
		if err != nil {
			return nil, err
		}
		q.Construct = tmpl
		if !p.acceptKeyword("WHERE") {
			return nil, p.errf("CONSTRUCT requires WHERE")
		}
		where, err := p.groupGraphPattern()
		if err != nil {
			return nil, err
		}
		q.Where = where
		q.Star = true // project every pattern variable for instantiation
		if err := p.solutionModifiers(q); err != nil {
			return nil, err
		}
	case p.acceptKeyword("DESCRIBE"):
		for {
			t := p.peek()
			if t.kind != tokIRI && t.kind != tokPName && t.kind != tokVar {
				break
			}
			tv, err := p.varOrTerm()
			if err != nil {
				return nil, err
			}
			q.Describe = append(q.Describe, tv)
		}
		if len(q.Describe) == 0 {
			return nil, p.errf("DESCRIBE requires at least one resource")
		}
		if p.acceptKeyword("WHERE") || p.isPunct("{") {
			where, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			q.Where = where
		} else {
			q.Where = &Pattern{Kind: Simple}
		}
		q.Star = true
	default:
		return nil, p.errf("expected SELECT, ASK, CONSTRUCT or DESCRIBE, got %q", p.peek().text)
	}
	return q, nil
}

// constructTemplate parses the CONSTRUCT template: a braced triples
// block (property paths are not allowed in templates).
func (p *parser) constructTemplate() ([]*TriplePattern, error) {
	return p.tripleTemplate("CONSTRUCT templates")
}

// tripleTemplate parses a braced triples block with no property paths;
// ctx names the construct for error messages ("CONSTRUCT templates",
// "update templates", ...).
func (p *parser) tripleTemplate(ctx string) ([]*TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []*TriplePattern
	for {
		if p.acceptPunct("}") {
			return out, nil
		}
		if p.acceptPunct(".") {
			continue
		}
		beforeClosures, beforeFresh := len(p.closures), p.freshN
		ts, pats, err := p.triplesSameSubject()
		if err != nil {
			return nil, err
		}
		if len(pats) > 0 || len(p.closures) != beforeClosures || p.freshN != beforeFresh {
			return nil, p.errf("property paths are not allowed in %s", ctx)
		}
		out = append(out, ts...)
	}
}

func (p *parser) solutionModifiers(q *Query) error {
	if p.acceptKeyword("ORDER") {
		if !p.acceptKeyword("BY") {
			return p.errf("expected BY after ORDER")
		}
		for {
			switch {
			case p.acceptKeyword("ASC"):
				e, err := p.brackettedExpr()
				if err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Expr: e})
			case p.acceptKeyword("DESC"):
				e, err := p.brackettedExpr()
				if err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Expr: e, Desc: true})
			case p.peek().kind == tokVar:
				q.OrderBy = append(q.OrderBy, OrderKey{Expr: &EVar{Name: p.next().text}})
			default:
				if len(q.OrderBy) == 0 {
					return p.errf("expected ORDER BY key")
				}
				goto done
			}
		}
	}
done:
	// LIMIT and OFFSET in either order.
	for {
		switch {
		case p.acceptKeyword("LIMIT"):
			t := p.peek()
			if t.kind != tokNumber {
				return p.errf("expected number after LIMIT")
			}
			p.pos++
			var n int64
			fmt.Sscanf(t.text, "%d", &n)
			q.Limit = n
		case p.acceptKeyword("OFFSET"):
			t := p.peek()
			if t.kind != tokNumber {
				return p.errf("expected number after OFFSET")
			}
			p.pos++
			var n int64
			fmt.Sscanf(t.text, "%d", &n)
			q.Offset = n
		default:
			return nil
		}
	}
}

func (p *parser) brackettedExpr() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return e, nil
}

// groupGraphPattern parses '{ ... }' into a pattern-tree node.
func (p *parser) groupGraphPattern() (*Pattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var elements []*Pattern
	var filters []Expr
	var run []*TriplePattern
	flushRun := func() {
		if len(run) > 0 {
			elements = append(elements, &Pattern{Kind: Simple, Triples: run})
			run = nil
		}
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokPunct && t.text == "}":
			p.pos++
			flushRun()
			return assembleGroup(elements, filters), nil
		case t.kind == tokPunct && t.text == ".":
			p.pos++
		case t.kind == tokPunct && t.text == "{":
			flushRun()
			grp, err := p.groupOrUnion()
			if err != nil {
				return nil, err
			}
			elements = append(elements, grp)
		case t.kind == tokKeyword && t.text == "OPTIONAL":
			p.pos++
			flushRun()
			child, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			elements = append(elements, &Pattern{Kind: Optional, Children: []*Pattern{child}})
		case t.kind == tokKeyword && t.text == "FILTER":
			p.pos++
			e, err := p.constraint()
			if err != nil {
				return nil, err
			}
			filters = append(filters, e)
		default:
			ts, pats, err := p.triplesSameSubject()
			if err != nil {
				return nil, err
			}
			run = append(run, ts...)
			if len(pats) > 0 {
				flushRun()
				elements = append(elements, pats...)
			}
		}
	}
}

// groupOrUnion parses '{...} (UNION {...})*'.
func (p *parser) groupOrUnion() (*Pattern, error) {
	first, err := p.groupGraphPattern()
	if err != nil {
		return nil, err
	}
	if !p.isKeyword("UNION") {
		return first, nil
	}
	or := &Pattern{Kind: Or, Children: []*Pattern{first}}
	for p.acceptKeyword("UNION") {
		next, err := p.groupGraphPattern()
		if err != nil {
			return nil, err
		}
		// Flatten nested unions produced by chained UNION keywords.
		if next.Kind == Or && len(next.Filters) == 0 {
			or.Children = append(or.Children, next.Children...)
		} else {
			or.Children = append(or.Children, next)
		}
	}
	return or, nil
}

// assembleGroup normalizes the parsed elements of one group into a
// single pattern node mirroring the paper's parse trees (Fig. 7).
func assembleGroup(elements []*Pattern, filters []Expr) *Pattern {
	switch len(elements) {
	case 0:
		return &Pattern{Kind: Simple, Filters: filters}
	case 1:
		e := elements[0]
		e.Filters = append(e.Filters, filters...)
		return e
	}
	return &Pattern{Kind: And, Children: elements, Filters: filters}
}

// triplesSameSubject parses subject + predicate-object list, where
// each predicate position may be a property path; alternatives inside
// paths desugar into extra UNION patterns.
func (p *parser) triplesSameSubject() ([]*TriplePattern, []*Pattern, error) {
	s, err := p.varOrTerm()
	if err != nil {
		return nil, nil, err
	}
	var out []*TriplePattern
	var pats []*Pattern
	for {
		pr, err := p.verbPath()
		if err != nil {
			return nil, nil, err
		}
		for {
			o, err := p.varOrTerm()
			if err != nil {
				return nil, nil, err
			}
			ts, nps, err := p.desugarPath(s, pr, o)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, ts...)
			pats = append(pats, nps...)
			if !p.acceptPunct(",") {
				break
			}
		}
		if !p.acceptPunct(";") {
			break
		}
		// allow trailing ';' before '.' or '}'
		if p.isPunct(".") || p.isPunct("}") {
			break
		}
	}
	return out, pats, nil
}

func (p *parser) varOrTerm() (TermOrVar, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.pos++
		return Variable(t.text), nil
	case tokIRI:
		p.pos++
		return Constant(rdf.NewIRI(t.text)), nil
	case tokPName:
		p.pos++
		if strings.HasPrefix(t.text, "_:") {
			// Blank nodes in query patterns act as non-projectable
			// variables.
			return Variable("_bnode_" + t.text[2:]), nil
		}
		iri, err := p.expandPName(t.text)
		if err != nil {
			return TermOrVar{}, err
		}
		return Constant(rdf.NewIRI(iri)), nil
	case tokString:
		p.pos++
		lex := t.text
		if p.peek().kind == tokLangTag {
			lang := p.next().text
			return Constant(rdf.NewLangLiteral(lex, lang)), nil
		}
		if p.peek().kind == tokDTypeMark {
			p.pos++
			dt := p.peek()
			var dtIRI string
			switch dt.kind {
			case tokIRI:
				dtIRI = dt.text
			case tokPName:
				var err error
				dtIRI, err = p.expandPName(dt.text)
				if err != nil {
					return TermOrVar{}, err
				}
			default:
				return TermOrVar{}, p.errf("expected datatype IRI")
			}
			p.pos++
			return Constant(rdf.NewTypedLiteral(lex, dtIRI)), nil
		}
		return Constant(rdf.NewLiteral(lex)), nil
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			return Constant(rdf.NewTypedLiteral(t.text, rdf.XSDDecimal)), nil
		}
		return Constant(rdf.NewTypedLiteral(t.text, rdf.XSDInteger)), nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.pos++
			return Constant(rdf.NewTypedLiteral("true", rdf.XSDBoolean)), nil
		case "FALSE":
			p.pos++
			return Constant(rdf.NewTypedLiteral("false", rdf.XSDBoolean)), nil
		}
	}
	return TermOrVar{}, p.errf("expected variable or RDF term, got %q", t.text)
}

func (p *parser) expandPName(pname string) (string, error) {
	i := strings.IndexByte(pname, ':')
	if i < 0 {
		return "", p.errf("malformed prefixed name %q", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	base, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errf("undeclared prefix %q", prefix)
	}
	return base + local, nil
}

// constraint parses FILTER's argument: a bracketted expression or a
// built-in call.
func (p *parser) constraint() (Expr, error) {
	if p.isPunct("(") {
		return p.brackettedExpr()
	}
	return p.primaryExpr()
}

// Expression grammar (SPARQL 1.0 §A.8, the operator subset).
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("||") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &EBin{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("&&") {
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &EBin{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.pos++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &EBin{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
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
		l = &EBin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
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
		l = &EBin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.acceptPunct("!") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &EUn{Op: "!", X: x}, nil
	}
	if p.acceptPunct("-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &EUn{Op: "-", X: x}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokPunct:
		if t.text == "(" {
			return p.brackettedExpr()
		}
	case tokVar:
		p.pos++
		return &EVar{Name: t.text}, nil
	case tokIRI:
		p.pos++
		return &ELit{Term: rdf.NewIRI(t.text)}, nil
	case tokPName:
		p.pos++
		iri, err := p.expandPName(t.text)
		if err != nil {
			return nil, err
		}
		return &ELit{Term: rdf.NewIRI(iri)}, nil
	case tokString:
		tv, err := p.varOrTerm()
		if err != nil {
			return nil, err
		}
		return &ELit{Term: tv.Term}, nil
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			return &ELit{Term: rdf.NewTypedLiteral(t.text, rdf.XSDDecimal)}, nil
		}
		return &ELit{Term: rdf.NewTypedLiteral(t.text, rdf.XSDInteger)}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.pos++
			return &ELit{Term: rdf.NewTypedLiteral("true", rdf.XSDBoolean)}, nil
		case "FALSE":
			p.pos++
			return &ELit{Term: rdf.NewTypedLiteral("false", rdf.XSDBoolean)}, nil
		default:
			// Built-in call: NAME(args...).
			name := strings.ToLower(t.text)
			p.pos++
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
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
			return &ECall{Name: name, Args: args}, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
