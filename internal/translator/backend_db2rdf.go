package translator

import (
	"fmt"
	"sort"
	"strconv"

	"db2rdf/internal/coloring"
	"db2rdf/internal/optimizer"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
)

// MethodT aliases the optimizer's access method type for backends.
type MethodT = optimizer.Method

// Method constants re-exported for backends.
const (
	MethodSC  = optimizer.SC
	MethodACS = optimizer.ACS
	MethodACO = optimizer.ACO
)

// StoreView is what the backend reads of the store while it
// translates: the column mappings, the spill and multi-value markers
// and the ids of constants, all of a *store.Snapshot, published or
// live. Translating against the snapshot a query executes on keeps the
// built query derived from exactly the state it reads, and nothing
// here writes.
type StoreView interface {
	Mapping(reverse bool) coloring.Mapping
	K(reverse bool) int
	LookupID(t rdf.Term) (int64, bool)
	SpillPredicates(reverse bool) map[int64]bool
	MultiValued(pid int64, reverse bool) bool
	AnyMultiValued(reverse bool) bool
}

// DB2RDF is the translator backend for the entity-oriented DB2RDF
// schema (DPH/DS/RPH/RS), emitting the CTE templates of Figures 12-13.
type DB2RDF struct {
	St StoreView
}

// NewDB2RDF wraps a store view as a translation backend.
func NewDB2RDF(st StoreView) *DB2RDF { return &DB2RDF{St: st} }

// LookupID implements Backend.
func (b *DB2RDF) LookupID(t rdf.Term) (int64, bool) { return b.St.LookupID(t) }

// MergeSafe implements Backend: constant predicates only, none
// involved in spills on the relevant side (§3.2.1). Scans read DPH
// like subject-keyed access does, so SC merges are allowed (the single
// DPH scan of Figure 2(b)).
func (b *DB2RDF) MergeSafe(m MethodT, triples ...*sparql.TriplePattern) bool {
	reverse := m == MethodACO
	spills := b.St.SpillPredicates(reverse)
	for _, t := range triples {
		if t.P.IsVar {
			return false
		}
		if _, closure := sparql.ClosureRelation(t.P.Term.Value); closure {
			return false
		}
		id, ok := b.St.LookupID(t.P.Term)
		if ok && spills[id] {
			return false
		}
	}
	return true
}

// itemInfo is the per-triple state inside an access node translation.
type itemInfo struct {
	item     PlanItem
	pid      int64
	cols     []int
	rawName  string // r<i> column name in phase 1
	multival bool
}

// Access implements Backend: a (possibly merged) star lookup against
// DPH or RPH, with DS/RS joins for multi-valued predicates.
func (b *DB2RDF) Access(g *Gen, n *PlanNode, in Ctx) (Ctx, error) {
	method := n.Method
	reverse := method == MethodACO
	primary, secondary := "DPH", "DS"
	if reverse {
		primary, secondary = "RPH", "RS"
	}
	mapping := b.St.Mapping(reverse)
	k := b.St.K(reverse)

	if n.Items[0].Triple.P.IsVar {
		if len(n.Items) != 1 {
			return Ctx{}, fmt.Errorf("translator: variable-predicate triples cannot be merged")
		}
		return b.varPredNode(g, n, in, primary, secondary, reverse, k)
	}
	if table, ok := sparql.ClosureRelation(n.Items[0].Triple.P.Term.Value); ok {
		// A closure marker: access the closure's pair relation, which
		// the engine resolves on the snapshot when the plan runs.
		if len(n.Items) != 1 {
			return Ctx{}, fmt.Errorf("translator: closure predicates cannot be merged")
		}
		return PositionalAccess(g, n.Items[0].Triple, in, table, "entry", "", "val")
	}

	entity := entityOf(n.Items[0].Triple, method)
	outVars := map[string]bool{}
	for v := range in.Vars {
		outVars[v] = true
	}

	// ---- Phase 1: primary relation access with predicate conditions.
	sel := g.Carry(in, "P")
	var conds []rel.Expr
	switch {
	case !entity.IsVar:
		conds = append(conds, Eq(Col("T", "entry"), IntLit(g.IDOf(entity.Term))))
	case in.Vars[entity.Var]:
		conds = append(conds, Eq(Col("T", "entry"), Col("P", g.ColFor(entity.Var))))
	default:
		// Unbound entity: scan with the entry exposed.
		sel = append(sel, As(Col("T", "entry"), g.ColFor(entity.Var)))
		outVars[entity.Var] = true
	}

	infos := make([]*itemInfo, len(n.Items))
	anyMulti := false
	for i, it := range n.Items {
		pid := g.IDOf(it.Triple.P.Term)
		cols := clipCols(mapping.Columns(it.Triple.P.Term.Value), k)
		info := &itemInfo{
			item:     it,
			pid:      pid,
			cols:     cols,
			rawName:  numbered("r", i),
			multival: b.St.MultiValued(pid, reverse),
		}
		raw := rawVal("T", cols, pid)
		switch {
		case len(cols) == 1 && (it.Optional || n.Merge == OrMerge):
			// An optional or disjunctive member's value is guarded, so
			// later phases can test its presence; with several
			// candidate columns rawVal's CASE already is.
			raw = &rel.CaseExpr{Whens: []rel.CaseWhen{{Cond: predCond("T", cols, pid), Result: raw}}, Else: Null}
		case !it.Optional && n.Merge != OrMerge:
			conds = append(conds, predCond("T", cols, pid))
		}
		if info.multival {
			anyMulti = true
		}
		sel = append(sel, As(raw, info.rawName))
		infos[i] = info
	}
	if n.Merge == OrMerge {
		alts := make([]rel.Expr, len(infos))
		for i, info := range infos {
			alts[i] = predCond("T", info.cols, info.pid)
		}
		conds = append(conds, Or(alts...))
	}
	cur := g.Emit(Select(sel, FromInput(in, From(primary, "T")), conds))

	// OR-merged disjuncts resolve their DS lists per flip arm: a
	// shared secondary join would cross-join the lists of different
	// disjuncts.
	if n.Merge == OrMerge {
		return b.orFlip(g, n, infos, cur, outVars, secondary)
	}

	// ---- Phase 2: DS/RS joins for multi-valued members.
	if anyMulti {
		sel2 := g.availCols(outVars)
		src := From(cur, "A")
		for i, info := range infos {
			var expr rel.Expr = Col("A", info.rawName)
			if info.multival {
				s := numbered("S", i)
				src.Joins = append(src.Joins, secondaryJoin(secondary, s, info.rawName))
				expr = call("COALESCE", Col(s, "elm"), Col("A", info.rawName))
			}
			sel2 = append(sel2, As(expr, info.rawName))
		}
		cur = g.Emit(Select(sel2, []rel.FromItem{src}, nil))
	}

	// ---- Phase 3: value bindings and conditions.
	sel3 := g.availCols(outVars)
	var conds3 []rel.Expr
	localNew := map[string]string{} // var -> raw column bound in this phase
	for _, info := range infos {
		tv := ValPos(info.item.Triple, method)
		val := Col("A", info.rawName)
		switch {
		case !tv.IsVar:
			conds3 = append(conds3, Eq(val, IntLit(g.IDOf(tv.Term))))
		case outVars[tv.Var]:
			var c rel.Expr = Eq(val, Col("A", g.ColFor(tv.Var)))
			if info.item.Optional {
				c = Or(c, &rel.IsNullExpr{X: Col("A", info.rawName)})
			}
			conds3 = append(conds3, c)
		case localNew[tv.Var] != "":
			conds3 = append(conds3, Eq(val, Col("A", localNew[tv.Var])))
		default:
			localNew[tv.Var] = info.rawName
			sel3 = append(sel3, As(val, g.ColFor(tv.Var)))
		}
	}
	for v := range localNew {
		outVars[v] = true
	}
	name := g.Emit(Select(sel3, []rel.FromItem{From(cur, "A")}, conds3))
	return Ctx{Cte: name, Vars: outVars}, nil
}

// availCols projects A.col AS col for every variable in vars, in
// column-name order.
func (g *Gen) availCols(vars map[string]bool) []rel.SelectItem {
	cols := make([]string, 0, len(vars))
	for v := range vars {
		cols = append(cols, g.ColFor(v))
	}
	sort.Strings(cols)
	out := make([]rel.SelectItem, len(cols))
	for i, c := range cols {
		out[i] = As(Col("A", c), c)
	}
	return out
}

// secondaryJoin is LEFT OUTER JOIN secondary AS alias ON A.raw =
// alias.lid: the member list a multi-valued cell's lid points to.
func secondaryJoin(secondary, alias, raw string) rel.JoinClause {
	return rel.JoinClause{Right: From(secondary, alias), On: Eq(Col("A", raw), Col(alias, "lid"))}
}

// orFlip flips an OR-merged access into one row per disjunct present:
// a UNION ALL with one arm per merged disjunct (a handful, not k — the
// k-pair flip of a variable predicate is varPredNode's lateral),
// guarded by presence of that disjunct's value. Each arm joins DS/RS
// for its own disjunct only — a shared join would cross-join the member
// lists of different disjuncts.
func (b *DB2RDF) orFlip(g *Gen, n *PlanNode, infos []*itemInfo, cur string, outVars map[string]bool, secondary string) (Ctx, error) {
	method := n.Method
	// Variables newly bound by arms.
	armVar := make([]string, len(infos))
	newVars := map[string]bool{}
	for i, info := range infos {
		tv := ValPos(info.item.Triple, method)
		if tv.IsVar && !outVars[tv.Var] {
			armVar[i] = tv.Var
			newVars[tv.Var] = true
		}
	}
	ordered := make([]string, 0, len(newVars))
	for v := range newVars {
		ordered = append(ordered, v)
	}
	sort.Strings(ordered)

	shared := make([]string, 0, len(outVars))
	for v := range outVars {
		shared = append(shared, v)
	}
	sort.Strings(shared)

	arms := make([]*rel.Select, len(infos))
	for i, info := range infos {
		src := From(cur, "A")
		var val rel.Expr = Col("A", info.rawName)
		if info.multival {
			src.Joins = []rel.JoinClause{secondaryJoin(secondary, "S0", info.rawName)}
			val = call("COALESCE", Col("S0", "elm"), Col("A", info.rawName))
		}
		var sel []rel.SelectItem
		for _, v := range shared {
			c := g.ColFor(v)
			sel = append(sel, As(Col("A", c), c))
		}
		for _, v := range ordered {
			c := g.ColFor(v)
			if v == armVar[i] {
				sel = append(sel, As(val, c))
			} else {
				sel = append(sel, As(Null, c))
			}
		}
		conds := []rel.Expr{&rel.IsNullExpr{X: Col("A", info.rawName), Not: true}}
		tv := ValPos(info.item.Triple, method)
		switch {
		case !tv.IsVar:
			conds = append(conds, Eq(val, IntLit(g.IDOf(tv.Term))))
		case outVars[tv.Var]:
			conds = append(conds, Eq(val, Col("A", g.ColFor(tv.Var))))
		}
		arms[i] = Select(sel, []rel.FromItem{src}, conds)
	}
	name := g.Emit(UnionAll(arms))
	for v := range newVars {
		outVars[v] = true
	}
	return Ctx{Cte: name, Vars: outVars}, nil
}

// varPredNode translates a triple whose predicate is a variable. The
// k (pred_i, val_i) pairs of the entity's row are flipped into rows by
// one lateral TABLE(VALUES ...) over the primary relation (Figure 13),
// so the triple costs one access of the row; the ways the predicate can
// already be determined — bound upstream, or repeating the entity
// variable — are conditions on the flipped L.pred.
func (b *DB2RDF) varPredNode(g *Gen, n *PlanNode, in Ctx, primary, secondary string, reverse bool, k int) (Ctx, error) {
	t := n.Items[0].Triple
	method := n.Method
	entity := entityOf(t, method)
	tv := ValPos(t, method)
	pv := t.P.Var

	outVars := map[string]bool{}
	for v := range in.Vars {
		outVars[v] = true
	}

	sel := g.Carry(in, "P")
	var conds []rel.Expr
	exposeEntity := false
	switch {
	case !entity.IsVar:
		conds = append(conds, Eq(Col("T", "entry"), IntLit(g.IDOf(entity.Term))))
	case in.Vars[entity.Var]:
		conds = append(conds, Eq(Col("T", "entry"), Col("P", g.ColFor(entity.Var))))
	default:
		exposeEntity = true
		sel = append(sel, As(Col("T", "entry"), g.ColFor(entity.Var)))
	}
	conds = append(conds, &rel.IsNullExpr{X: Col("L", "pred"), Not: true})

	predBound := in.Vars[pv]
	// "?a ?a ?b": the predicate variable repeats the entity variable,
	// which becomes an equality on the row rather than a second
	// exposure.
	predSameAsEntity := entity.IsVar && entity.Var == pv
	switch {
	case predBound:
		conds = append(conds, Eq(Col("L", "pred"), Col("P", g.ColFor(pv))))
	case predSameAsEntity:
		conds = append(conds, Eq(Col("L", "pred"), Col("T", "entry")))
	default:
		sel = append(sel, As(Col("L", "pred"), g.ColFor(pv)))
	}
	sel = append(sel, As(Col("L", "val"), "r0"))

	cur := g.Emit(Select(sel, FromInput(in, From(primary, "T"), pairFlip("T", k)), conds))
	if exposeEntity {
		outVars[entity.Var] = true
	}
	if !predBound && !predSameAsEntity {
		outVars[pv] = true
	}

	if b.St.AnyMultiValued(reverse) {
		sel2 := append(g.availCols(outVars), As(call("COALESCE", Col("S0", "elm"), Col("A", "r0")), "r0"))
		src := From(cur, "A")
		src.Joins = []rel.JoinClause{secondaryJoin(secondary, "S0", "r0")}
		cur = g.Emit(Select(sel2, []rel.FromItem{src}, nil))
	}

	sel3 := g.availCols(outVars)
	var conds3 []rel.Expr
	switch {
	case !tv.IsVar:
		conds3 = append(conds3, Eq(Col("A", "r0"), IntLit(g.IDOf(tv.Term))))
	case outVars[tv.Var]:
		conds3 = append(conds3, Eq(Col("A", "r0"), Col("A", g.ColFor(tv.Var))))
	default:
		sel3 = append(sel3, As(Col("A", "r0"), g.ColFor(tv.Var)))
		outVars[tv.Var] = true
	}
	name := g.Emit(Select(sel3, []rel.FromItem{From(cur, "A")}, conds3))
	return Ctx{Cte: name, Vars: outVars}, nil
}

// pairFlip is the lateral item that flips the k (pred_i, val_i) pairs
// of alias's row into rows L(pred, val) (Figure 13).
func pairFlip(alias string, k int) rel.FromItem {
	rows := make([][]rel.Expr, k)
	for i := range rows {
		rows[i] = []rel.Expr{Col(alias, numbered("pred", i)), Col(alias, numbered("val", i))}
	}
	return rel.FromItem{Lateral: &rel.Lateral{Rows: rows, Cols: []string{"pred", "val"}}, Alias: "L"}
}

// clipCols drops candidate columns beyond the physical budget.
func clipCols(cols []int, k int) []int {
	out := cols[:0:0]
	for _, c := range cols {
		if c < k {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// predCond is the predicate membership condition over the candidate
// columns (Figure 12 box 3).
func predCond(alias string, cols []int, pid int64) rel.Expr {
	alts := make([]rel.Expr, len(cols))
	for i, c := range cols {
		alts[i] = Eq(Col(alias, numbered("pred", c)), IntLit(pid))
	}
	return Or(alts...)
}

// rawVal is the value expression over the candidate columns; with
// several candidates a CASE selects the column actually holding the
// predicate (the paper's CASE statements of §3.2.2).
func rawVal(alias string, cols []int, pid int64) rel.Expr {
	if len(cols) == 1 {
		return Col(alias, numbered("val", cols[0]))
	}
	c := &rel.CaseExpr{Whens: make([]rel.CaseWhen, len(cols)), Else: Null}
	for i, col := range cols {
		c.Whens[i] = rel.CaseWhen{Cond: Eq(Col(alias, numbered("pred", col)), IntLit(pid)), Result: Col(alias, numbered("val", col))}
	}
	return c
}

// numbered is prefix followed by i: a column name such as pred3, val3
// or r0, or an alias such as S1. The names of the first few dozen come
// from a table.
func numbered(prefix string, i int) string {
	if t, ok := numberedNames[prefix]; ok && i < len(t) {
		return t[i]
	}
	return prefix + strconv.Itoa(i)
}

var numberedNames = func() map[string][]string {
	m := map[string][]string{}
	for _, p := range []string{"pred", "val", "r", "S"} {
		t := make([]string, 64)
		for i := range t {
			t[i] = p + strconv.Itoa(i)
		}
		m[p] = t
	}
	return m
}()
