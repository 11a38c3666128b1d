package sparql

import (
	"strings"

	"db2rdf/internal/rdf"
)

// SPARQL 1.1 Update grammar. An update request is a semicolon-separated
// sequence of operations, each optionally preceded by its own prologue:
//
//	INSERT DATA { ground triples }
//	DELETE DATA { ground triples }        (no blank nodes)
//	DELETE WHERE { pattern }              (pattern doubles as template)
//	DELETE { tmpl } INSERT { tmpl } WHERE { pattern }
//	DELETE { tmpl } WHERE { pattern }
//	INSERT { tmpl } WHERE { pattern }
//	CLEAR [SILENT] (DEFAULT | ALL)
//
// The store holds a single default graph, so GRAPH management clauses
// (WITH, USING, GRAPH blocks, CLEAR GRAPH/NAMED) are rejected rather
// than silently ignored.

// UpdateOpKind discriminates the operations of an update request.
type UpdateOpKind int

const (
	// OpInsertData inserts a ground triple set.
	OpInsertData UpdateOpKind = iota
	// OpDeleteData deletes a ground triple set.
	OpDeleteData
	// OpModify evaluates Where and, per solution, deletes the
	// instantiated DeleteTempl triples then inserts the InsertTempl
	// ones (SPARQL 1.1 Update §3.1.3: all deletes before all inserts).
	OpModify
	// OpClear removes every triple from the store.
	OpClear
)

func (k UpdateOpKind) String() string {
	switch k {
	case OpInsertData:
		return "INSERT DATA"
	case OpDeleteData:
		return "DELETE DATA"
	case OpModify:
		return "DELETE/INSERT"
	case OpClear:
		return "CLEAR"
	}
	return "?"
}

// UpdateOp is one operation of an update request.
type UpdateOp struct {
	Kind UpdateOpKind
	// Data holds the ground triples of INSERT DATA / DELETE DATA.
	Data []rdf.Triple
	// DeleteTempl and InsertTempl are the OpModify templates; either
	// may be empty (INSERT ... WHERE has no delete template and vice
	// versa). Variables are bound by Where; unbound instantiations are
	// skipped per the spec.
	DeleteTempl []*TriplePattern
	InsertTempl []*TriplePattern
	// Where is the OpModify pattern, nil for the other kinds.
	Where *Pattern
	// Closures are the property-path closures Where introduced.
	Closures []Closure
}

// Update is a parsed SPARQL update request.
type Update struct {
	Prefixes map[string]string
	Ops      []*UpdateOp
}

// ParseUpdate parses a SPARQL 1.1 update request string.
func ParseUpdate(in string) (*Update, error) {
	toks, err := lex(in)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: map[string]string{}}
	u := &Update{Prefixes: p.prefixes}
	for {
		if err := p.prologue(); err != nil {
			return nil, err
		}
		if p.peek().kind == tokEOF {
			break
		}
		op, err := p.updateOp()
		if err != nil {
			return nil, err
		}
		u.Ops = append(u.Ops, op)
		if !p.acceptPunct(";") && p.peek().kind != tokEOF {
			return nil, p.errf("expected ';' or end of update, got %q", p.peek().text)
		}
	}
	if len(u.Ops) == 0 {
		return nil, p.errf("empty update request")
	}
	return u, nil
}

// updateOp parses one update operation.
func (p *parser) updateOp() (*UpdateOp, error) {
	switch {
	case p.acceptKeyword("INSERT"):
		if p.acceptKeyword("DATA") {
			data, err := p.groundTriples(true)
			if err != nil {
				return nil, err
			}
			return &UpdateOp{Kind: OpInsertData, Data: data}, nil
		}
		tmpl, err := p.tripleTemplate("update templates")
		if err != nil {
			return nil, err
		}
		op := &UpdateOp{Kind: OpModify, InsertTempl: tmpl}
		return op, p.modifyTail(op)
	case p.acceptKeyword("DELETE"):
		if p.acceptKeyword("DATA") {
			data, err := p.groundTriples(false)
			if err != nil {
				return nil, err
			}
			return &UpdateOp{Kind: OpDeleteData, Data: data}, nil
		}
		if p.isKeyword("WHERE") {
			// DELETE WHERE { pattern }: the pattern is the template.
			p.pos++
			op := &UpdateOp{Kind: OpModify}
			if err := p.wherePattern(op); err != nil {
				return nil, err
			}
			if op.Where.Kind != Simple || len(op.Where.Children) > 0 ||
				len(op.Where.Filters) > 0 || len(op.Closures) > 0 {
				return nil, p.errf("DELETE WHERE requires a plain triple-pattern group")
			}
			// The template gets its own copies: compiling the WHERE
			// rewrites its triples in place (the inference rewrite
			// replaces a type pattern's object with a fresh variable),
			// and that must not change what is deleted.
			for _, t := range op.Where.Triples {
				c := *t
				c.Parent = nil
				op.DeleteTempl = append(op.DeleteTempl, &c)
			}
			return op, checkNoBlank(p, op.DeleteTempl)
		}
		tmpl, err := p.tripleTemplate("update templates")
		if err != nil {
			return nil, err
		}
		if err := checkNoBlank(p, tmpl); err != nil {
			return nil, err
		}
		op := &UpdateOp{Kind: OpModify, DeleteTempl: tmpl}
		if p.acceptKeyword("INSERT") {
			ins, err := p.tripleTemplate("update templates")
			if err != nil {
				return nil, err
			}
			op.InsertTempl = ins
		}
		return op, p.modifyTail(op)
	case p.acceptKeyword("CLEAR"):
		p.acceptKeyword("SILENT")
		switch {
		case p.acceptKeyword("DEFAULT"), p.acceptKeyword("ALL"):
		case p.isKeyword("NAMED") || p.isKeyword("GRAPH"):
			return nil, p.errf("named graphs are not supported (single default graph)")
		default:
			return nil, p.errf("expected DEFAULT or ALL after CLEAR, got %q", p.peek().text)
		}
		return &UpdateOp{Kind: OpClear}, nil
	case p.isKeyword("WITH") || p.isKeyword("USING"):
		return nil, p.errf("named graphs are not supported (single default graph)")
	}
	return nil, p.errf("expected INSERT, DELETE or CLEAR, got %q", p.peek().text)
}

// modifyTail parses the WHERE clause of a DELETE/INSERT operation.
func (p *parser) modifyTail(op *UpdateOp) error {
	if !p.acceptKeyword("WHERE") {
		return p.errf("expected WHERE, got %q", p.peek().text)
	}
	return p.wherePattern(op)
}

// wherePattern parses a group graph pattern into op.Where, capturing
// the closures it introduced so the executor can materialize them for
// this operation only.
func (p *parser) wherePattern(op *UpdateOp) error {
	beforeClosures := len(p.closures)
	where, err := p.groupGraphPattern()
	if err != nil {
		return err
	}
	finalize(where, nil)
	op.Where = where
	// Capped, so a rewrite appending to one operation's closures
	// cannot overwrite the next operation's.
	op.Closures = p.closures[beforeClosures:len(p.closures):len(p.closures)]
	return nil
}

// groundTriples parses the braced triple block of INSERT DATA / DELETE
// DATA, requiring every position to be ground. Blank node labels are
// allowed only when allowBlank is set (INSERT DATA; DELETE DATA must
// be fully ground per the spec).
func (p *parser) groundTriples(allowBlank bool) ([]rdf.Triple, error) {
	tmpl, err := p.tripleTemplate("data blocks")
	if err != nil {
		return nil, err
	}
	out := make([]rdf.Triple, 0, len(tmpl))
	for _, tp := range tmpl {
		s, err := p.groundTerm(tp.S, allowBlank)
		if err != nil {
			return nil, err
		}
		o, err := p.groundTerm(tp.O, allowBlank)
		if err != nil {
			return nil, err
		}
		pr, err := p.groundTerm(tp.P, false)
		if err != nil {
			return nil, err
		}
		if pr.Kind != rdf.IRI {
			return nil, p.errf("predicate in data block must be an IRI, got %s", pr)
		}
		out = append(out, rdf.Triple{S: s, P: pr, O: o})
	}
	return out, nil
}

// groundTerm converts a template position to a ground term. Blank node
// labels (parsed as _bnode_-prefixed variables) become blank terms
// when allowed; any other variable is an error in a data block.
func (p *parser) groundTerm(tv TermOrVar, allowBlank bool) (rdf.Term, error) {
	if !tv.IsVar {
		return tv.Term, nil
	}
	if label, ok := strings.CutPrefix(tv.Var, "_bnode_"); ok {
		if allowBlank {
			return rdf.NewBlank(label), nil
		}
		return rdf.Term{}, p.errf("blank node _:%s not allowed in DELETE data", label)
	}
	return rdf.Term{}, p.errf("variable ?%s not allowed in a ground data block", tv.Var)
}

// checkNoBlank rejects blank node labels in DELETE templates (SPARQL
// 1.1 Update §3.1.3: blank nodes must not appear in a DeleteClause).
func checkNoBlank(p *parser, tmpl []*TriplePattern) error {
	for _, tp := range tmpl {
		for _, tv := range []TermOrVar{tp.S, tp.P, tp.O} {
			if tv.IsVar && strings.HasPrefix(tv.Var, "_bnode_") {
				return p.errf("blank nodes are not allowed in DELETE templates")
			}
		}
	}
	return nil
}
