package sparql

import (
	"fmt"
	"sort"
	"strings"

	"db2rdf/internal/rdf"
)

// PatternKind enumerates the four pattern types of the paper's query
// model (§3.1.2): SIMPLE (a run of triple patterns), AND, OR (UNION)
// and OPTIONAL.
type PatternKind uint8

const (
	// Simple is a conjunction of bare triple patterns.
	Simple PatternKind = iota
	// And joins sub-patterns conjunctively.
	And
	// Or is a UNION of sub-patterns.
	Or
	// Optional guards its single child pattern.
	Optional
)

// String names the kind.
func (k PatternKind) String() string {
	switch k {
	case Simple:
		return "SIMPLE"
	case And:
		return "AND"
	case Or:
		return "OR"
	case Optional:
		return "OPTIONAL"
	}
	return fmt.Sprintf("PatternKind(%d)", uint8(k))
}

// TermOrVar is one position of a triple pattern: a variable or a
// constant RDF term.
type TermOrVar struct {
	IsVar bool
	Var   string
	Term  rdf.Term
}

// Variable constructs a variable position.
func Variable(name string) TermOrVar { return TermOrVar{IsVar: true, Var: name} }

// Constant constructs a constant position.
func Constant(t rdf.Term) TermOrVar { return TermOrVar{Term: t} }

// String renders the position in SPARQL syntax.
func (tv TermOrVar) String() string {
	if tv.IsVar {
		return "?" + tv.Var
	}
	return tv.Term.String()
}

// TriplePattern is one triple pattern with a stable id (t1, t2, ... in
// document order) and a parent pointer into the pattern tree.
type TriplePattern struct {
	ID      int
	S, P, O TermOrVar
	Parent  *Pattern
}

// Vars returns the variables of the triple in S, P, O order
// (deduplicated).
func (t *TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, tv := range []TermOrVar{t.S, t.P, t.O} {
		if tv.IsVar && !seen[tv.Var] {
			seen[tv.Var] = true
			out = append(out, tv.Var)
		}
	}
	return out
}

// String renders the triple pattern.
func (t *TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s", t.S, t.P, t.O)
}

// Pattern is a node of the pattern tree.
type Pattern struct {
	Kind     PatternKind
	Triples  []*TriplePattern // Simple only
	Children []*Pattern       // And, Or; Optional has exactly one child
	Filters  []Expr           // FILTER constraints scoped to this group
	Parent   *Pattern
}

// Child returns the single child of an Optional pattern.
func (p *Pattern) Child() *Pattern {
	if len(p.Children) == 0 {
		return nil
	}
	return p.Children[0]
}

// Walk visits the pattern tree depth-first, parents before children.
func (p *Pattern) Walk(fn func(*Pattern)) {
	fn(p)
	for _, c := range p.Children {
		c.Walk(fn)
	}
}

// AllTriples returns every triple pattern under p in document order.
func (p *Pattern) AllTriples() []*TriplePattern {
	var out []*TriplePattern
	p.Walk(func(q *Pattern) { out = append(out, q.Triples...) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AllFilters returns every filter expression under p.
func (p *Pattern) AllFilters() []Expr {
	var out []Expr
	p.Walk(func(q *Pattern) { out = append(out, q.Filters...) })
	return out
}

// Vars returns the sorted set of variables bound under p.
func (p *Pattern) Vars() []string {
	set := map[string]bool{}
	for _, t := range p.AllTriples() {
		for _, v := range t.Vars() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Ancestors returns ↑*(p): the chain of enclosing patterns from p's
// parent to the root.
func (p *Pattern) Ancestors() []*Pattern {
	var out []*Pattern
	for q := p.Parent; q != nil; q = q.Parent {
		out = append(out, q)
	}
	return out
}

// ancestorsSelfSet returns p plus all its ancestors as a set.
func ancestorsSelfSet(p *Pattern) map[*Pattern]bool {
	set := map[*Pattern]bool{p: true}
	for q := p.Parent; q != nil; q = q.Parent {
		set[q] = true
	}
	return set
}

// LCA implements Definition 3.4: the least common ancestor pattern of
// a and b (counting a pattern as an ancestor of itself).
func LCA(a, b *Pattern) *Pattern {
	bs := ancestorsSelfSet(b)
	for q := a; q != nil; q = q.Parent {
		if bs[q] {
			return q
		}
	}
	return nil
}

// AncestorsToLCA implements Definition 3.5 (↑↑): the ancestors of p
// strictly below the LCA of p and q, including p itself.
func AncestorsToLCA(p, q *Pattern) []*Pattern {
	lca := LCA(p, q)
	var out []*Pattern
	for r := p; r != nil && r != lca; r = r.Parent {
		out = append(out, r)
	}
	return out
}

// TripleLCA is LCA lifted to triple patterns (via their parents).
func TripleLCA(a, b *TriplePattern) *Pattern { return LCA(a.Parent, b.Parent) }

// OrConnected implements Definition 3.6 (∪): the least common ancestor
// of the two triples is an OR pattern.
func OrConnected(a, b *TriplePattern) bool {
	lca := TripleLCA(a, b)
	return lca != nil && lca.Kind == Or
}

// OptionalGuarded implements Definition 3.7 (∩): t2 is optional with
// respect to t1 — some pattern on the path from t2's group up to (but
// excluding) the LCA is an OPTIONAL.
func OptionalGuarded(t1, t2 *TriplePattern) bool {
	for _, p := range AncestorsToLCA(t2.Parent, t1.Parent) {
		if p.Kind == Optional {
			return true
		}
	}
	// The group itself may be the OPTIONAL's child; count the parent
	// chain node of kind Optional reached exactly at the boundary.
	return false
}

// ANDMergeable implements Definition 3.9: every intermediate ancestor
// up to and including the LCA is an AND (or SIMPLE, which is a
// degenerate conjunctive group).
func ANDMergeable(a, b *TriplePattern) bool {
	lca := TripleLCA(a, b)
	if lca == nil || !conjunctiveKind(lca.Kind) {
		return false
	}
	for _, p := range append(AncestorsToLCA(a.Parent, b.Parent), AncestorsToLCA(b.Parent, a.Parent)...) {
		if !conjunctiveKind(p.Kind) {
			return false
		}
	}
	return true
}

// ORMergeable implements Definition 3.10: the LCA is an OR and every
// intermediate ancestor is an OR or a degenerate single-triple group.
func ORMergeable(a, b *TriplePattern) bool {
	lca := TripleLCA(a, b)
	if lca == nil || lca.Kind != Or {
		return false
	}
	for _, p := range append(AncestorsToLCA(a.Parent, b.Parent), AncestorsToLCA(b.Parent, a.Parent)...) {
		if p.Kind != Or && p.Kind != Simple {
			return false
		}
	}
	return true
}

// OPTMergeable implements Definition 3.11: intermediate ancestors are
// ANDs except that the pattern guarding the later triple b is an
// OPTIONAL directly enclosing it.
func OPTMergeable(a, b *TriplePattern) bool {
	lca := TripleLCA(a, b)
	if lca == nil || !conjunctiveKind(lca.Kind) {
		return false
	}
	for _, p := range AncestorsToLCA(a.Parent, b.Parent) {
		if !conjunctiveKind(p.Kind) {
			return false
		}
	}
	sawOptional := false
	for _, p := range AncestorsToLCA(b.Parent, a.Parent) {
		if p.Kind == Optional {
			if sawOptional {
				return false // doubly nested optionals do not merge
			}
			sawOptional = true
			continue
		}
		if !conjunctiveKind(p.Kind) {
			return false
		}
	}
	return sawOptional
}

func conjunctiveKind(k PatternKind) bool { return k == And || k == Simple }

// Query is a parsed SPARQL query.
type Query struct {
	Prefixes map[string]string
	Ask      bool
	Distinct bool
	Star     bool
	Vars     []string // projection list when Star is false
	Where    *Pattern
	OrderBy  []OrderKey
	Limit    int64 // -1 when absent
	Offset   int64
	// Closures lists the transitive property paths in the query (see
	// Closure); empty for plain SPARQL 1.0 queries.
	Closures []Closure
	// Construct holds the template of a CONSTRUCT query (nil for
	// SELECT/ASK/DESCRIBE).
	Construct []*TriplePattern
	// Describe holds the resources of a DESCRIBE query.
	Describe []TermOrVar
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// ProjectedVars returns the variables the query answers with: the
// explicit projection, or all pattern variables for SELECT *.
func (q *Query) ProjectedVars() []string {
	if !q.Star {
		return q.Vars
	}
	return q.Where.Vars()
}

// String renders a compact single-line description of the pattern tree
// (used by tests and -explain output).
func (p *Pattern) TreeString() string {
	var b strings.Builder
	p.tree(&b)
	return b.String()
}

func (p *Pattern) tree(b *strings.Builder) {
	switch p.Kind {
	case Simple:
		b.WriteString("{")
		for i, t := range p.Triples {
			if i > 0 {
				b.WriteString(" . ")
			}
			fmt.Fprintf(b, "t%d", t.ID)
		}
		b.WriteString("}")
	default:
		b.WriteString(p.Kind.String())
		b.WriteString("(")
		for i, c := range p.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			c.tree(b)
		}
		b.WriteString(")")
	}
	if len(p.Filters) > 0 {
		fmt.Fprintf(b, "[%d filters]", len(p.Filters))
	}
}

// Expr is a FILTER expression node.
type Expr interface{ exprNode() }

// EVar references a SPARQL variable.
type EVar struct{ Name string }

// ELit is a constant RDF term (literal, IRI).
type ELit struct{ Term rdf.Term }

// EBin is a binary operation: || && = != < <= > >= + - * /.
type EBin struct {
	Op   string
	L, R Expr
}

// EUn is unary ! or -.
type EUn struct {
	Op string
	X  Expr
}

// ECall is a built-in call: regex, bound, str, lang, datatype, isiri,
// isliteral, isblank.
type ECall struct {
	Name string // lower-cased
	Args []Expr
}

func (*EVar) exprNode()  {}
func (*ELit) exprNode()  {}
func (*EBin) exprNode()  {}
func (*EUn) exprNode()   {}
func (*ECall) exprNode() {}

// ExprVars collects the variables referenced by e into set.
func ExprVars(e Expr, set map[string]bool) {
	switch x := e.(type) {
	case *EVar:
		set[x.Name] = true
	case *EBin:
		ExprVars(x.L, set)
		ExprVars(x.R, set)
	case *EUn:
		ExprVars(x.X, set)
	case *ECall:
		for _, a := range x.Args {
			ExprVars(a, set)
		}
	}
}

// PathStep is one atomic edge step of a property-path closure: follow
// predicate IRI forward, or backward when Inverse is set.
type PathStep struct {
	IRI     string
	Inverse bool
}

// Closure describes a transitive property path (p+, p*, p?) that the
// parser could not desugar statically (SPARQL 1.1 property paths — the
// paper's stated future work). SealClosures gives the triple pattern
// carrying it a marker predicate naming Relation, the (entry, val)
// relation of the closure's pairs, which the engine computes when the
// plan runs.
type Closure struct {
	// Triple is the pattern whose predicate stands for the closure.
	Triple *TriplePattern
	// Steps is the union of edge steps the closure ranges over.
	Steps []PathStep
	// Min is 0 for * and ?, 1 for +.
	Min int
	// Max is -1 for unbounded (+, *) and 1 for ?.
	Max int
	// Classes makes a Min 0 closure reflexive on every object of an
	// rdf:type triple, so under inference each declared class matches
	// itself.
	Classes bool
}
