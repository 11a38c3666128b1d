package sparql

import "db2rdf/internal/rdf"

// UnifyEqualityFilters performs the classic filter-to-pattern rewrites
// on the root group's FILTERs:
//
//   - FILTER (?a = ?b) between two variables is replaced by
//     substituting one variable for the other throughout the pattern,
//     so the optimizer sees a shared variable (a join) instead of a
//     cross-product followed by a selection. SP2Bench's Q5a/Q5b pair is
//     designed to expose exactly this difference.
//   - FILTER (?v = <iri>), (<iri> = ?v) or sameTerm(?v, <iri>) is
//     replaced by substituting the IRI for ?v in the triples, so the
//     constant reaches the access path: SP2Bench's Q3 family turns from
//     a variable-predicate scan plus a selection into a two-triple
//     star. Only IRIs qualify — on them SPARQL "=" is term identity,
//     which is what a constant in a triple pattern means; a literal
//     constant compares by value and stays a filter.
//
// The rewrite is deliberately conservative; it applies only when
//
//   - the filter sits on the root pattern (variables may not leak
//     across an enclosing scope we did not inspect),
//   - every variable involved is bound by a required (non-OPTIONAL,
//     non-UNION) triple, so "unbound makes the filter false" semantics
//     are preserved by the substitution,
//   - the variable being removed is neither projected nor used in
//     ORDER BY, and the query is not SELECT *, and
//   - for the IRI form, no other filter anywhere mentions the variable:
//     a constant is not accepted everywhere a variable is (bound(?v),
//     arithmetic), and an expression over it is better left reading
//     the binding.
func UnifyEqualityFilters(q *Query) {
	root := q.Where
	if root == nil || q.Star {
		// SELECT * projects everything; removing a variable would
		// change the result shape.
		return
	}
	protected := map[string]bool{}
	for _, v := range q.Vars {
		protected[v] = true
	}
	for _, k := range q.OrderBy {
		ExprVars(k.Expr, protected)
	}
	// The root's filters are taken off the pattern while they are
	// rewritten: kept (decided, staying) and filters[i+1:] (undecided)
	// are the explicit lists a substitution has to reach besides the
	// tree. kept is a fresh slice — filters may have spare capacity, and
	// appending into it would overwrite entries not yet read.
	filters := root.Filters
	root.Filters = nil
	kept := make([]Expr, 0, len(filters))
	for i, f := range filters {
		remove, to, ok := foldable(f, protected)
		if ok && !to.IsVar {
			others := map[string]bool{}
			for _, g := range root.AllFilters() {
				ExprVars(g, others)
			}
			for j, g := range filters {
				if j != i {
					ExprVars(g, others)
				}
			}
			ok = !others[remove]
		}
		if ok {
			ok = boundByRequiredTriple(root, remove) && (!to.IsVar || boundByRequiredTriple(root, to.Var))
		}
		if !ok {
			kept = append(kept, f)
			continue
		}
		root.Walk(func(p *Pattern) {
			for _, t := range p.Triples {
				for _, pos := range []*TermOrVar{&t.S, &t.P, &t.O} {
					if pos.IsVar && pos.Var == remove {
						*pos = to
					}
				}
			}
			if to.IsVar {
				for _, g := range p.Filters {
					renameExprVar(g, remove, to.Var)
				}
			}
		})
		if to.IsVar {
			for _, g := range kept {
				renameExprVar(g, remove, to.Var)
			}
			for _, g := range filters[i+1:] {
				renameExprVar(g, remove, to.Var)
			}
		}
	}
	root.Filters = kept
}

// foldable recognizes the filters UnifyEqualityFilters can fold into
// the pattern and decides the substitution: "=" or sameTerm over two
// distinct variables, at least one of them unprotected (that one is
// removed in favour of the other, the right-hand one first), or over
// an unprotected variable and an IRI constant.
func foldable(f Expr, protected map[string]bool) (remove string, to TermOrVar, ok bool) {
	var l, r Expr
	switch x := f.(type) {
	case *EBin:
		if x.Op != "=" {
			return "", TermOrVar{}, false
		}
		l, r = x.L, x.R
	case *ECall:
		if x.Name != "sameterm" || len(x.Args) != 2 {
			return "", TermOrVar{}, false
		}
		l, r = x.Args[0], x.Args[1]
	default:
		return "", TermOrVar{}, false
	}
	lv, lIsVar := l.(*EVar)
	rv, rIsVar := r.(*EVar)
	switch {
	case lIsVar && rIsVar:
		if lv.Name == rv.Name {
			return "", TermOrVar{}, false
		}
		if !protected[rv.Name] {
			return rv.Name, Variable(lv.Name), true
		}
		if !protected[lv.Name] {
			return lv.Name, Variable(rv.Name), true
		}
	case lIsVar:
		if c, isLit := r.(*ELit); isLit && c.Term.Kind == rdf.IRI && !protected[lv.Name] {
			return lv.Name, Constant(c.Term), true
		}
	case rIsVar:
		if c, isLit := l.(*ELit); isLit && c.Term.Kind == rdf.IRI && !protected[rv.Name] {
			return rv.Name, Constant(c.Term), true
		}
	}
	return "", TermOrVar{}, false
}

// boundByRequiredTriple reports whether v occurs in a triple reachable
// from p through conjunctive (AND/SIMPLE) patterns only.
func boundByRequiredTriple(p *Pattern, v string) bool {
	for _, t := range p.Triples {
		for _, tv := range t.Vars() {
			if tv == v {
				return true
			}
		}
	}
	if p.Kind == And || p.Kind == Simple {
		for _, c := range p.Children {
			if (c.Kind == And || c.Kind == Simple) && boundByRequiredTriple(c, v) {
				return true
			}
		}
	}
	return false
}

// renameExprVar renames variables inside a filter expression.
func renameExprVar(e Expr, from, to string) {
	switch x := e.(type) {
	case *EVar:
		if x.Name == from {
			x.Name = to
		}
	case *EBin:
		renameExprVar(x.L, from, to)
		renameExprVar(x.R, from, to)
	case *EUn:
		renameExprVar(x.X, from, to)
	case *ECall:
		for _, a := range x.Args {
			renameExprVar(a, from, to)
		}
	}
}
