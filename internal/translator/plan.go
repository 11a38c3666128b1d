// Package translator implements the SPARQL-to-SQL translation of
// Bornea et al. (SIGMOD 2013, §3.2) for the DB2RDF schema: the query
// plan builder that merges execution-tree nodes into star lookups
// (Definitions 3.9-3.11, spill-aware), and the query builder that emits
// a chain of common table expressions over DPH/DS/RPH/RS (Figures
// 12-13) as a bound rel.Query, printed as SQL for EXPLAIN.
package translator

import (
	"fmt"
	"strings"

	"db2rdf/internal/optimizer"
	"db2rdf/internal/sparql"
)

// MergeKind records which merge rule produced a plan node.
type MergeKind uint8

const (
	// NoMerge marks an unmerged single-triple access.
	NoMerge MergeKind = iota
	// AndMerge marks a conjunctive star merge (Definition 3.9).
	AndMerge
	// OrMerge marks a disjunctive merge (Definition 3.10).
	OrMerge
	// OptMerge marks a merge with optional members (Definition 3.11).
	OptMerge
)

// String names the merge kind.
func (m MergeKind) String() string {
	switch m {
	case NoMerge:
		return "none"
	case AndMerge:
		return "and"
	case OrMerge:
		return "or"
	case OptMerge:
		return "opt"
	}
	return fmt.Sprintf("MergeKind(%d)", uint8(m))
}

// PlanKind enumerates query plan node kinds.
type PlanKind uint8

const (
	// PlanAccess evaluates one or more triples with a single table
	// access (a merged star when len(Items) > 1).
	PlanAccess PlanKind = iota
	// PlanAnd joins children in order.
	PlanAnd
	// PlanOr unions children.
	PlanOr
	// PlanOpt left-outer-joins its single child.
	PlanOpt
)

// PlanItem is one triple inside an access node.
type PlanItem struct {
	Triple   *sparql.TriplePattern
	Optional bool
	// Est is the optimizer's TMC estimate for this triple, carried
	// through planning so EXPLAIN ANALYZE can show it next to the
	// actual cardinality.
	Est float64
}

// PlanNode is a node of the storage-specific query plan (Figure 11).
type PlanNode struct {
	Kind     PlanKind
	Items    []PlanItem
	Method   optimizer.Method
	Merge    MergeKind
	Children []*PlanNode
	Filters  []sparql.Expr
}

// String renders the plan compactly, e.g.
// AND[(t4,aco), ({t2,t3},aco:or), (t1,acs), (t5,aco), ({t6,t7},acs:opt)].
func (n *PlanNode) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *PlanNode) render(b *strings.Builder) {
	switch n.Kind {
	case PlanAccess:
		if len(n.Items) == 1 {
			fmt.Fprintf(b, "(t%d,%s)", n.Items[0].Triple.ID, n.Method)
		} else {
			b.WriteString("({")
			for i, it := range n.Items {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(b, "t%d", it.Triple.ID)
				if it.Optional {
					b.WriteString("?")
				}
			}
			fmt.Fprintf(b, "},%s:%s)", n.Method, n.Merge)
		}
	case PlanAnd:
		b.WriteString("AND[")
		n.renderChildren(b)
		b.WriteString("]")
	case PlanOr:
		b.WriteString("OR[")
		n.renderChildren(b)
		b.WriteString("]")
	case PlanOpt:
		b.WriteString("OPT[")
		n.renderChildren(b)
		b.WriteString("]")
	}
	if len(n.Filters) > 0 {
		fmt.Fprintf(b, "{%df}", len(n.Filters))
	}
}

func (n *PlanNode) renderChildren(b *strings.Builder) {
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		c.render(b)
	}
}

// MergeCount returns the number of merged access nodes in the plan
// (for tests and EXPLAIN output).
func (n *PlanNode) MergeCount() int {
	count := 0
	if n.Kind == PlanAccess && len(n.Items) > 1 {
		count++
	}
	for _, c := range n.Children {
		count += c.MergeCount()
	}
	return count
}

// entityOf returns the entity position of a triple under a method:
// the subject for acs/sc, the object for aco.
func entityOf(t *sparql.TriplePattern, m optimizer.Method) sparql.TermOrVar {
	if m == optimizer.ACO {
		return t.O
	}
	return t.S
}

// methodsCompatible reports whether two access methods can share one
// row access: equal methods always, and SC with ACS (both read the
// subject-keyed primary relation; a scan is just an unkeyed lookup —
// Figure 2(b) merges a constant-free star into one DPH scan).
func methodsCompatible(a, b optimizer.Method) bool {
	if a == b {
		return true
	}
	return (a == optimizer.SC && b == optimizer.ACS) || (a == optimizer.ACS && b == optimizer.SC)
}

// sameEntity reports whether two positions denote the same entity
// (same variable, or equal constant terms).
func sameEntity(a, b sparql.TermOrVar) bool {
	if a.IsVar != b.IsVar {
		return false
	}
	if a.IsVar {
		return a.Var == b.Var
	}
	return a.Term == b.Term
}

// Planner builds storage-specific query plans for a backend.
type Planner struct {
	backend Backend
	noMerge bool
}

// NewPlanner returns a planner bound to a backend (which supplies the
// spill and multi-value metadata merge decisions need).
func NewPlanner(b Backend) *Planner { return &Planner{backend: b} }

// SetMerging enables or disables star merging (the ablation of the
// paper's join-elimination claim); merging is on by default.
func (p *Planner) SetMerging(enabled bool) { p.noMerge = !enabled }

// mergeSafe defers to the backend (§3.2.1).
func (p *Planner) mergeSafe(m optimizer.Method, triples ...*sparql.TriplePattern) bool {
	if p.noMerge {
		return false
	}
	return p.backend.MergeSafe(m, triples...)
}

// BuildPlan converts an execution tree into a query plan, applying the
// structural and semantic merge rules.
func (p *Planner) BuildPlan(exec *optimizer.ExecNode) *PlanNode {
	switch exec.Kind {
	case optimizer.ExecLeaf:
		return &PlanNode{
			Kind:    PlanAccess,
			Items:   []PlanItem{{Triple: exec.Triple, Est: exec.Cost}},
			Method:  exec.Method,
			Filters: exec.Filters,
		}
	case optimizer.ExecOr:
		or := &PlanNode{Kind: PlanOr, Filters: exec.Filters}
		for _, c := range exec.Children {
			or.Children = append(or.Children, p.BuildPlan(c))
		}
		if merged := p.tryOrMerge(or); merged != nil {
			return merged
		}
		return or
	case optimizer.ExecOpt:
		return &PlanNode{Kind: PlanOpt, Children: []*PlanNode{p.BuildPlan(exec.Children[0])}, Filters: exec.Filters}
	}
	// ExecAnd: build children then run the merge pass.
	and := &PlanNode{Kind: PlanAnd, Filters: exec.Filters}
	for _, c := range exec.Children {
		child := p.BuildPlan(c)
		and.Children = append(and.Children, p.mergeInto(and.Children, child))
	}
	// mergeInto returns nil when the child was absorbed; compact.
	out := and.Children[:0]
	for _, c := range and.Children {
		if c != nil {
			out = append(out, c)
		}
	}
	and.Children = out
	if len(and.Children) == 1 && len(and.Filters) == 0 {
		return and.Children[0]
	}
	return and
}

// mergeInto tries to absorb child into one of the already planned
// siblings; it returns child when no merge applies and nil when the
// child was absorbed.
func (p *Planner) mergeInto(siblings []*PlanNode, child *PlanNode) *PlanNode {
	switch child.Kind {
	case PlanAccess:
		if len(child.Items) != 1 || len(child.Filters) > 0 {
			return child
		}
		t := child.Items[0].Triple
		for _, s := range siblings {
			if s == nil || s.Kind != PlanAccess || !methodsCompatible(s.Method, child.Method) {
				continue
			}
			if s.Merge != NoMerge && s.Merge != AndMerge && s.Merge != OptMerge {
				continue
			}
			if len(s.Filters) > 0 {
				continue
			}
			if !sameEntity(entityOf(s.Items[0].Triple, s.Method), entityOf(t, child.Method)) {
				continue
			}
			ok := true
			for _, it := range s.Items {
				if !sparql.ANDMergeable(it.Triple, t) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			all := []*sparql.TriplePattern{t}
			for _, it := range s.Items {
				all = append(all, it.Triple)
			}
			if !p.mergeSafe(s.Method, all...) {
				continue
			}
			s.Items = append(s.Items, PlanItem{Triple: t, Est: child.Items[0].Est})
			if s.Merge == NoMerge {
				s.Merge = AndMerge
			}
			return nil
		}
		return child
	case PlanOpt:
		// Definition 3.11: a single-triple OPTIONAL merges into a
		// compatible required access node.
		inner := child.Children[0]
		if inner.Kind != PlanAccess || len(inner.Items) != 1 || len(inner.Filters) > 0 || len(child.Filters) > 0 {
			return child
		}
		t := inner.Items[0].Triple
		for _, s := range siblings {
			if s == nil || s.Kind != PlanAccess || !methodsCompatible(s.Method, inner.Method) {
				continue
			}
			if s.Merge != NoMerge && s.Merge != AndMerge && s.Merge != OptMerge {
				continue
			}
			if len(s.Filters) > 0 {
				continue
			}
			if !sameEntity(entityOf(s.Items[0].Triple, s.Method), entityOf(t, inner.Method)) {
				continue
			}
			ok := true
			for _, it := range s.Items {
				if it.Optional {
					continue
				}
				if !sparql.OPTMergeable(it.Triple, t) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			all := []*sparql.TriplePattern{t}
			for _, it := range s.Items {
				all = append(all, it.Triple)
			}
			if !p.mergeSafe(s.Method, all...) {
				continue
			}
			s.Items = append(s.Items, PlanItem{Triple: t, Optional: true, Est: inner.Items[0].Est})
			s.Merge = OptMerge
			return nil
		}
		return child
	}
	return child
}

// tryOrMerge converts an OR of single-triple accesses on the same
// entity and method into one disjunctive access node (Definition 3.10).
func (p *Planner) tryOrMerge(or *PlanNode) *PlanNode {
	var items []PlanItem
	var method optimizer.Method
	var entity sparql.TermOrVar
	var triples []*sparql.TriplePattern
	for i, c := range or.Children {
		if c.Kind != PlanAccess || len(c.Items) != 1 || len(c.Filters) > 0 {
			return nil
		}
		t := c.Items[0].Triple
		if i == 0 {
			method = c.Method
			entity = entityOf(t, method)
		} else {
			if c.Method != method || !sameEntity(entityOf(t, method), entity) {
				return nil
			}
			if !sparql.ORMergeable(triples[0], t) {
				return nil
			}
		}
		items = append(items, PlanItem{Triple: t, Est: c.Items[0].Est})
		triples = append(triples, t)
	}
	if len(items) < 2 || !p.mergeSafe(method, triples...) {
		return nil
	}
	return &PlanNode{Kind: PlanAccess, Items: items, Method: method, Merge: OrMerge, Filters: or.Filters}
}
