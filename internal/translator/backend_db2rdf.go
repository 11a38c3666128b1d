package translator

import (
	"fmt"
	"sort"
	"strings"

	"db2rdf/internal/coloring"
	"db2rdf/internal/optimizer"
	"db2rdf/internal/rdf"
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

// StoreView is the read-side store surface the backend translates
// against: a *store.Snapshot, published or live. Translating against
// the snapshot a query executes on keeps the generated SQL derived from
// exactly the state it reads.
type StoreView interface {
	Mapping(reverse bool) coloring.Mapping
	K(reverse bool) int
	LookupID(t rdf.Term) (int64, bool)
	EncodeID(t rdf.Term) int64
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

// EncodeID implements Backend.
func (b *DB2RDF) EncodeID(t rdf.Term) int64 { return b.St.EncodeID(t) }

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
	raw      string // phase-1 expression over T
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
		return PositionalAccess(g, n.Items[0].Triple, in, table+" AS T", "T.entry", "", "T.val")
	}

	entity := entityOf(n.Items[0].Triple, method)
	outVars := map[string]bool{}
	for v := range in.Vars {
		outVars[v] = true
	}

	// ---- Phase 1: primary relation access with predicate conditions.
	sel := g.Carry(in, "P")
	var conds []string
	switch {
	case !entity.IsVar:
		conds = append(conds, fmt.Sprintf("T.entry = %d", g.IDOf(entity.Term)))
	case in.Vars[entity.Var]:
		conds = append(conds, fmt.Sprintf("T.entry = P.%s", g.ColFor(entity.Var)))
	default:
		// Unbound entity: scan with the entry exposed.
		col := g.ColFor(entity.Var)
		sel = append(sel, fmt.Sprintf("T.entry AS %s", col))
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
			rawName:  fmt.Sprintf("r%d", i),
			multival: b.St.MultiValued(pid, reverse),
		}
		pc := predCond("T", cols, pid)
		raw := rawVal("T", cols, pid)
		switch {
		case it.Optional:
			if len(cols) == 1 {
				raw = fmt.Sprintf("CASE WHEN %s THEN %s ELSE NULL END", pc, raw)
			}
			// multi-column raw is already a CASE guarded by predicate
			// conditions.
		case n.Merge == OrMerge:
			// Disjunctive members: each value is guarded so the flip
			// phase can test presence.
			if len(cols) == 1 {
				raw = fmt.Sprintf("CASE WHEN %s THEN %s ELSE NULL END", pc, raw)
			}
		default:
			conds = append(conds, pc)
		}
		info.raw = raw
		if info.multival {
			anyMulti = true
		}
		sel = append(sel, fmt.Sprintf("%s AS %s", raw, info.rawName))
		infos[i] = info
	}
	if n.Merge == OrMerge {
		var alts []string
		for _, info := range infos {
			alts = append(alts, predCond("T", info.cols, info.pid))
		}
		conds = append(conds, "("+strings.Join(alts, " OR ")+")")
	}

	from := fmt.Sprintf("%s AS T", primary)
	if in.Cte != "" {
		from = fmt.Sprintf("%s AS P, %s AS T", in.Cte, primary)
	}
	body := fmt.Sprintf("SELECT %s FROM %s", strings.Join(sel, ", "), from)
	if len(conds) > 0 {
		body += " WHERE " + strings.Join(conds, " AND ")
	}
	cur := g.Emit(body)

	// Columns now available in cur: carried cols, maybe entity col,
	// r0..rn.
	availCols := func(alias string) []string {
		var out []string
		for v := range outVars {
			c := g.ColFor(v)
			out = append(out, fmt.Sprintf("%s.%s AS %s", alias, c, c))
		}
		sort.Strings(out)
		return out
	}

	// OR-merged disjuncts resolve their DS lists per flip arm: a
	// shared secondary join would cross-join the lists of different
	// disjuncts.
	if n.Merge == OrMerge {
		return b.orFlip(g, n, infos, cur, outVars, secondary)
	}

	// ---- Phase 2: DS/RS joins for multi-valued members.
	finalVal := make([]string, len(infos))
	if anyMulti {
		var joins []string
		sel2 := availCols("A")
		for i, info := range infos {
			var expr string
			if info.multival {
				sAlias := fmt.Sprintf("S%d", i)
				joins = append(joins, fmt.Sprintf("LEFT OUTER JOIN %s AS %s ON A.%s = %s.lid", secondary, sAlias, info.rawName, sAlias))
				expr = fmt.Sprintf("COALESCE(%s.elm, A.%s)", sAlias, info.rawName)
			} else {
				expr = "A." + info.rawName
			}
			sel2 = append(sel2, fmt.Sprintf("%s AS %s", expr, info.rawName))
		}
		body2 := fmt.Sprintf("SELECT %s FROM %s AS A %s", strings.Join(sel2, ", "), cur, strings.Join(joins, " "))
		cur = g.Emit(body2)
	}
	for i := range infos {
		finalVal[i] = "A." + infos[i].rawName
	}

	// ---- Phase 3: value bindings and conditions.
	sel3 := availCols("A")
	var conds3 []string
	localNew := map[string]string{} // var -> expression bound in this phase
	for i, info := range infos {
		tv := ValPos(info.item.Triple, method)
		expr := finalVal[i]
		switch {
		case !tv.IsVar:
			conds3 = append(conds3, fmt.Sprintf("%s = %d", expr, g.IDOf(tv.Term)))
		case outVars[tv.Var]:
			c := fmt.Sprintf("%s = A.%s", expr, g.ColFor(tv.Var))
			if info.item.Optional {
				c = fmt.Sprintf("(%s OR %s IS NULL)", c, expr)
			}
			conds3 = append(conds3, c)
		case localNew[tv.Var] != "":
			conds3 = append(conds3, fmt.Sprintf("%s = %s", expr, localNew[tv.Var]))
		default:
			localNew[tv.Var] = expr
			sel3 = append(sel3, fmt.Sprintf("%s AS %s", expr, g.ColFor(tv.Var)))
		}
	}
	for v := range localNew {
		outVars[v] = true
	}
	if len(sel3) == 0 {
		sel3 = []string{"1 AS one"}
	}
	body3 := fmt.Sprintf("SELECT %s FROM %s AS A", strings.Join(sel3, ", "), cur)
	if len(conds3) > 0 {
		body3 += " WHERE " + strings.Join(conds3, " AND ")
	}
	name := g.Emit(body3)
	return Ctx{Cte: name, Vars: outVars}, nil
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

	var arms []string
	for i, info := range infos {
		raw := "A." + info.rawName
		val := raw
		from := fmt.Sprintf("%s AS A", cur)
		if info.multival {
			from += fmt.Sprintf(" LEFT OUTER JOIN %s AS S0 ON %s = S0.lid", secondary, raw)
			val = fmt.Sprintf("COALESCE(S0.elm, %s)", raw)
		}
		var sel []string
		for _, v := range shared {
			c := g.ColFor(v)
			sel = append(sel, fmt.Sprintf("A.%s AS %s", c, c))
		}
		for _, v := range ordered {
			c := g.ColFor(v)
			if v == armVar[i] {
				sel = append(sel, fmt.Sprintf("%s AS %s", val, c))
			} else {
				sel = append(sel, fmt.Sprintf("NULL AS %s", c))
			}
		}
		conds := []string{fmt.Sprintf("%s IS NOT NULL", raw)}
		tv := ValPos(info.item.Triple, method)
		switch {
		case !tv.IsVar:
			conds = append(conds, fmt.Sprintf("%s = %d", val, g.IDOf(tv.Term)))
		case outVars[tv.Var]:
			conds = append(conds, fmt.Sprintf("%s = A.%s", val, g.ColFor(tv.Var)))
		}
		if len(sel) == 0 {
			sel = []string{"1 AS one"}
		}
		arms = append(arms, fmt.Sprintf("SELECT %s FROM %s WHERE %s",
			strings.Join(sel, ", "), from, strings.Join(conds, " AND ")))
	}
	name := g.Emit(strings.Join(arms, "\nUNION ALL\n"))
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
	var conds []string
	exposeEntity := false
	switch {
	case !entity.IsVar:
		conds = append(conds, fmt.Sprintf("T.entry = %d", g.IDOf(entity.Term)))
	case in.Vars[entity.Var]:
		conds = append(conds, fmt.Sprintf("T.entry = P.%s", g.ColFor(entity.Var)))
	default:
		exposeEntity = true
		sel = append(sel, fmt.Sprintf("T.entry AS %s", g.ColFor(entity.Var)))
	}
	conds = append(conds, "L.pred IS NOT NULL")

	predBound := in.Vars[pv]
	// "?a ?a ?b": the predicate variable repeats the entity variable,
	// which becomes an equality on the row rather than a second
	// exposure.
	predSameAsEntity := entity.IsVar && entity.Var == pv
	switch {
	case predBound:
		conds = append(conds, fmt.Sprintf("L.pred = P.%s", g.ColFor(pv)))
	case predSameAsEntity:
		conds = append(conds, "L.pred = T.entry")
	default:
		sel = append(sel, fmt.Sprintf("L.pred AS %s", g.ColFor(pv)))
	}
	sel = append(sel, "L.val AS r0")

	from := fmt.Sprintf("%s AS T, %s", primary, pairFlip("T", k))
	if in.Cte != "" {
		from = fmt.Sprintf("%s AS P, %s", in.Cte, from)
	}
	cur := g.Emit(fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(sel, ", "), from, strings.Join(conds, " AND ")))
	if exposeEntity {
		outVars[entity.Var] = true
	}
	if !predBound && !predSameAsEntity {
		outVars[pv] = true
	}

	availCols := func(alias string) []string {
		var out []string
		for v := range outVars {
			c := g.ColFor(v)
			out = append(out, fmt.Sprintf("%s.%s AS %s", alias, c, c))
		}
		sort.Strings(out)
		return out
	}

	valExpr := "A.r0"
	if b.St.AnyMultiValued(reverse) {
		sel2 := availCols("A")
		sel2 = append(sel2, "COALESCE(S0.elm, A.r0) AS r0")
		body := fmt.Sprintf("SELECT %s FROM %s AS A LEFT OUTER JOIN %s AS S0 ON A.r0 = S0.lid",
			strings.Join(sel2, ", "), cur, secondary)
		cur = g.Emit(body)
	}

	sel3 := availCols("A")
	var conds3 []string
	switch {
	case !tv.IsVar:
		conds3 = append(conds3, fmt.Sprintf("%s = %d", valExpr, g.IDOf(tv.Term)))
	case outVars[tv.Var]:
		conds3 = append(conds3, fmt.Sprintf("%s = A.%s", valExpr, g.ColFor(tv.Var)))
	default:
		sel3 = append(sel3, fmt.Sprintf("%s AS %s", valExpr, g.ColFor(tv.Var)))
		outVars[tv.Var] = true
	}
	if len(sel3) == 0 {
		sel3 = []string{"1 AS one"}
	}
	body3 := fmt.Sprintf("SELECT %s FROM %s AS A", strings.Join(sel3, ", "), cur)
	if len(conds3) > 0 {
		body3 += " WHERE " + strings.Join(conds3, " AND ")
	}
	name := g.Emit(body3)
	return Ctx{Cte: name, Vars: outVars}, nil
}

// pairFlip renders the lateral item that flips the k (pred_i, val_i)
// pairs of alias's row into rows L(pred, val) (Figure 13).
func pairFlip(alias string, k int) string {
	pairs := make([]string, k)
	for i := range pairs {
		pairs[i] = fmt.Sprintf("(%s.pred%d, %s.val%d)", alias, i, alias, i)
	}
	return "TABLE(VALUES " + strings.Join(pairs, ", ") + ") AS L(pred, val)"
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

// predCond renders the predicate membership condition over the
// candidate columns (Figure 12 box 3).
func predCond(alias string, cols []int, pid int64) string {
	if len(cols) == 1 {
		return fmt.Sprintf("%s.pred%d = %d", alias, cols[0], pid)
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%s.pred%d = %d", alias, c, pid)
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// rawVal renders the value expression over the candidate columns; with
// several candidates a CASE selects the column actually holding the
// predicate (the paper's CASE statements of §3.2.2).
func rawVal(alias string, cols []int, pid int64) string {
	if len(cols) == 1 {
		return fmt.Sprintf("%s.val%d", alias, cols[0])
	}
	var b strings.Builder
	b.WriteString("CASE")
	for _, c := range cols {
		fmt.Fprintf(&b, " WHEN %s.pred%d = %d THEN %s.val%d", alias, c, pid, alias, c)
	}
	b.WriteString(" ELSE NULL END")
	return b.String()
}
