package sparql

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"db2rdf/internal/rdf"
)

// Property-path support (SPARQL 1.1, the paper's stated future work).
//
// Sequences (p1/p2), alternatives (p1|p2) and inverses (^p) are
// desugared at parse time into ordinary triple patterns, fresh
// variables and UNION patterns, so the whole optimizer/translator
// pipeline applies unchanged. Transitive closures (p+, p*, p?) cannot
// be expressed as a fixed pattern; the parser records them as Closure
// entries on the query, each carried by one triple whose predicate
// SealClosures turns into a marker naming the closure's pair relation.
// The engine computes the pairs when the plan runs.

type pathExpr interface{ pathNode() }

// pStep is a plain predicate: an IRI or (only at the top level of a
// verb) a variable.
type pStep struct{ tv TermOrVar }

// pInv is ^path.
type pInv struct{ x pathExpr }

// pSeq is path/path/...
type pSeq struct{ parts []pathExpr }

// pAlt is path|path|...
type pAlt struct{ arms []pathExpr }

// pRep is path with a repetition postfix: ? (0..1), * (0..∞), + (1..∞).
type pRep struct {
	x        pathExpr
	min, max int // max == -1 means unbounded
}

func (pStep) pathNode() {}
func (pInv) pathNode()  {}
func (pSeq) pathNode()  {}
func (pAlt) pathNode()  {}
func (pRep) pathNode()  {}

// verbPath parses the verb position: a variable, or a property path.
func (p *parser) verbPath() (pathExpr, error) {
	if p.peek().kind == tokVar {
		tv, err := p.varOrTerm()
		if err != nil {
			return nil, err
		}
		return pStep{tv: tv}, nil
	}
	return p.path()
}

// path := pathSeq ('|' pathSeq)*
func (p *parser) path() (pathExpr, error) {
	first, err := p.pathSeq()
	if err != nil {
		return nil, err
	}
	if !p.isPunct("|") {
		return first, nil
	}
	alt := pAlt{arms: []pathExpr{first}}
	for p.acceptPunct("|") {
		next, err := p.pathSeq()
		if err != nil {
			return nil, err
		}
		alt.arms = append(alt.arms, next)
	}
	return alt, nil
}

// pathSeq := pathEltOrInverse ('/' pathEltOrInverse)*
func (p *parser) pathSeq() (pathExpr, error) {
	first, err := p.pathEltOrInverse()
	if err != nil {
		return nil, err
	}
	if !p.isPunct("/") {
		return first, nil
	}
	seq := pSeq{parts: []pathExpr{first}}
	for p.acceptPunct("/") {
		next, err := p.pathEltOrInverse()
		if err != nil {
			return nil, err
		}
		seq.parts = append(seq.parts, next)
	}
	return seq, nil
}

func (p *parser) pathEltOrInverse() (pathExpr, error) {
	if p.acceptPunct("^") {
		x, err := p.pathElt()
		if err != nil {
			return nil, err
		}
		return pInv{x: x}, nil
	}
	return p.pathElt()
}

// pathElt := pathPrimary ('*'|'+'|'?')?
func (p *parser) pathElt() (pathExpr, error) {
	prim, err := p.pathPrimary()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptPunct("*"):
		return pRep{x: prim, min: 0, max: -1}, nil
	case p.acceptPunct("+"):
		return pRep{x: prim, min: 1, max: -1}, nil
	case p.acceptPunct("?"):
		return pRep{x: prim, min: 0, max: 1}, nil
	}
	return prim, nil
}

func (p *parser) pathPrimary() (pathExpr, error) {
	t := p.peek()
	switch t.kind {
	case tokA:
		p.pos++
		return pStep{tv: Constant(rdf.NewIRI(rdf.RDFType))}, nil
	case tokIRI:
		p.pos++
		return pStep{tv: Constant(rdf.NewIRI(t.text))}, nil
	case tokPName:
		p.pos++
		iri, err := p.expandPName(t.text)
		if err != nil {
			return nil, err
		}
		return pStep{tv: Constant(rdf.NewIRI(iri))}, nil
	case tokPunct:
		if t.text == "(" {
			p.pos++
			inner, err := p.path()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, p.errf("expected property path, got %q", t.text)
}

// freshVar returns a parser-generated variable for path desugaring.
func (p *parser) freshVar() TermOrVar {
	p.freshN++
	return Variable(fmt.Sprintf("_path%d", p.freshN))
}

// newTriple allocates a triple pattern with the next document-order id.
func (p *parser) newTriple(s, pred, o TermOrVar) *TriplePattern {
	p.nextTID++
	return &TriplePattern{ID: p.nextTID, S: s, P: pred, O: o}
}

// desugarPath lowers `s path o` into plain triples plus (for
// alternatives) UNION patterns; a transitive closure becomes a triple
// carried by a Closure record.
func (p *parser) desugarPath(s TermOrVar, x pathExpr, o TermOrVar) ([]*TriplePattern, []*Pattern, error) {
	switch e := x.(type) {
	case pStep:
		return []*TriplePattern{p.newTriple(s, e.tv, o)}, nil, nil
	case pInv:
		return p.desugarPath(o, e.x, s)
	case pSeq:
		var ts []*TriplePattern
		var pats []*Pattern
		cur := s
		for i, part := range e.parts {
			next := o
			if i < len(e.parts)-1 {
				next = p.freshVar()
			}
			nts, npats, err := p.desugarPath(cur, part, next)
			if err != nil {
				return nil, nil, err
			}
			ts = append(ts, nts...)
			pats = append(pats, npats...)
			cur = next
		}
		return ts, pats, nil
	case pAlt:
		or := &Pattern{Kind: Or}
		for _, arm := range e.arms {
			nts, npats, err := p.desugarPath(s, arm, o)
			if err != nil {
				return nil, nil, err
			}
			var armPat *Pattern
			switch {
			case len(npats) == 0:
				armPat = &Pattern{Kind: Simple, Triples: nts}
			case len(nts) == 0 && len(npats) == 1:
				armPat = npats[0]
			default:
				children := append([]*Pattern{{Kind: Simple, Triples: nts}}, npats...)
				armPat = &Pattern{Kind: And, Children: children}
			}
			or.Children = append(or.Children, armPat)
		}
		return nil, []*Pattern{or}, nil
	case pRep:
		steps, err := flattenSteps(e.x, false)
		if err != nil {
			return nil, nil, err
		}
		t := p.newTriple(s, UnsealedClosure, o)
		p.closures = append(p.closures, Closure{Triple: t, Steps: steps, Min: e.min, Max: e.max})
		return []*TriplePattern{t}, nil, nil
	}
	return nil, nil, p.errf("unsupported property path form %T", x)
}

// flattenSteps reduces a closure operand to a union of atomic edge
// steps; closures over sequences or nested repetitions are rejected
// (with a clear error) rather than approximated.
func flattenSteps(x pathExpr, inverse bool) ([]PathStep, error) {
	switch e := x.(type) {
	case pStep:
		if e.tv.IsVar {
			return nil, fmt.Errorf("sparql: variables are not allowed inside property paths")
		}
		return []PathStep{{IRI: e.tv.Term.Value, Inverse: inverse}}, nil
	case pInv:
		return flattenSteps(e.x, !inverse)
	case pAlt:
		var out []PathStep
		for _, arm := range e.arms {
			steps, err := flattenSteps(arm, inverse)
			if err != nil {
				return nil, err
			}
			out = append(out, steps...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("sparql: closure over this path form is not supported (use an IRI, ^IRI, or an alternative of those)")
}

// closureMarkerPrefix starts the marker IRI of a sealed closure; the
// rest of the IRI is the closure's relation name.
const closureMarkerPrefix = "urn:db2rdf:closure:"

// UnsealedClosure is the predicate of a closure's triple until
// SealClosures names it.
var UnsealedClosure = Constant(rdf.NewIRI(closureMarkerPrefix))

// ClosureRelation returns the relation a closure marker stands for,
// and whether iri is one.
func ClosureRelation(iri string) (string, bool) {
	return strings.CutPrefix(iri, closureMarkerPrefix)
}

// Reflexive returns the constant endpoints of a Min 0 closure's triple:
// each matches itself at length zero, edge or no edge.
func (c Closure) Reflexive() []rdf.Term {
	if c.Min > 0 {
		return nil
	}
	var out []rdf.Term
	for _, end := range []TermOrVar{c.Triple.S, c.Triple.O} {
		if !end.IsVar {
			out = append(out, end.Term)
		}
	}
	return out
}

// Relation returns the name of the (entry, val) relation holding the
// closure's pairs. It is a pure function of everything that decides
// them — the steps with their inverse flags, Min, Max, Classes and the
// reflexive constants — so every compile of every query names one
// closure alike.
func (c Closure) Relation() string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %t %#v", c.Min, c.Max, c.Classes, c.Steps)
	for _, t := range c.Reflexive() {
		fmt.Fprintf(h, " %q", t.Key())
	}
	return fmt.Sprintf("CLOSURE_%x", h.Sum(nil)[:8])
}

// SealClosures turns the predicate of each closure's triple into the
// marker of its Relation and returns q's closures, one per relation.
// It runs once the pattern's constants are final, after
// UnifyEqualityFilters.
func SealClosures(q *Query) []Closure {
	var out []Closure
	for _, c := range q.Closures {
		name := c.Relation()
		c.Triple.P = Constant(rdf.NewIRI(closureMarkerPrefix + name))
		if !slices.ContainsFunc(out, func(o Closure) bool { return o.Relation() == name }) {
			out = append(out, c)
		}
	}
	return out
}
