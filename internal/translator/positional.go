package translator

import (
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
)

// PositionalAccess emits the generic one-triple access over a binary
// or ternary relation read as table AS T: equality conditions for every
// constant or previously bound position, projections for every newly
// bound variable. It is shared by the baseline backends (TRIPLES and
// COL_* relations) and by property-path closure tables. Pass "" for
// predCol when the relation is predicate-specific.
func PositionalAccess(g *Gen, t *sparql.TriplePattern, in Ctx, table, subjCol, predCol, objCol string) (Ctx, error) {
	outVars := map[string]bool{}
	for v := range in.Vars {
		outVars[v] = true
	}
	sel := g.Carry(in, "P")
	var conds []rel.Expr
	local := map[string]string{}
	handle := func(tv sparql.TermOrVar, col string) {
		if col == "" {
			return
		}
		switch {
		case !tv.IsVar:
			conds = append(conds, Eq(Col("T", col), IntLit(g.IDOf(tv.Term))))
		case in.Vars[tv.Var]:
			conds = append(conds, Eq(Col("T", col), Col("P", g.ColFor(tv.Var))))
		case local[tv.Var] != "":
			conds = append(conds, Eq(Col("T", col), Col("T", local[tv.Var])))
		default:
			local[tv.Var] = col
			sel = append(sel, As(Col("T", col), g.ColFor(tv.Var)))
			outVars[tv.Var] = true
		}
	}
	handle(t.S, subjCol)
	handle(t.P, predCol)
	handle(t.O, objCol)
	name := g.Emit(Select(sel, FromInput(in, From(table, "T")), conds))
	return Ctx{Cte: name, Vars: outVars}, nil
}

// FromInput is the FROM list of an access: the input CTE as P, when
// there is one, then the items the access reads.
func FromInput(in Ctx, items ...rel.FromItem) []rel.FromItem {
	if in.Cte == "" {
		return items
	}
	return append([]rel.FromItem{From(in.Cte, "P")}, items...)
}
