package translator

import (
	"fmt"
	"sort"
	"strconv"

	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
)

// Backend abstracts the relational schema a plan is translated onto.
// The DB2RDF backend lives in this package; the triple-store and
// predicate-oriented (vertical) baselines implement it in
// internal/baselines. Everything except access-node generation —
// UNION, OPTIONAL, FILTER handling and the final select — is shared.
type Backend interface {
	// Access translates one PlanAccess node, returning the output
	// context.
	Access(g *Gen, n *PlanNode, in Ctx) (Ctx, error)
	// LookupID resolves a constant term without interning; absent
	// terms report false (they can match nothing).
	LookupID(t rdf.Term) (int64, bool)
	// MergeSafe reports whether the given triples may be answered by a
	// single row access (§3.2.1); backends without star storage return
	// false.
	MergeSafe(m MethodT, ts ...*sparql.TriplePattern) bool
}

// Result is a translated query: the bound relational query plus the
// metadata the caller needs to decode its result back into SPARQL
// bindings.
type Result struct {
	// Query is the bound statement (WITH ... SELECT ...), ready for
	// rel.DB.ExecContext. Nil when the query has no triple patterns.
	Query *rel.Query
	// SQL is Query's text (rel.Query.String), for EXPLAIN and tests;
	// execution never reads it. Empty when Query is nil.
	SQL string
	// Columns holds the projected variable names, in result-column
	// order. Trailing hidden columns (ORDER BY keys that are not
	// projected) follow them.
	Columns []string
	// Hidden is the number of trailing hidden columns to drop.
	Hidden int
	// Ask marks an ASK query (one row means true).
	Ask bool
	// Plan is the query plan Query was built from.
	Plan *PlanNode
	// Traces records, per access node, the CTE it emitted and the
	// optimizer's TMC estimates for the triples it answers. EXPLAIN
	// ANALYZE joins Cte against executed per-CTE row counts to put
	// estimates next to actual cardinalities.
	Traces []AccessTrace
}

// AccessTrace links one translated access node to its generated CTE.
type AccessTrace struct {
	// Cte is the name of the CTE the access emitted (before any FILTER
	// wrapping), as produced by Gen.Emit (e.g. "QT3").
	Cte    string
	Method MethodT
	Merge  MergeKind
	// TripleIDs and Ests are aligned: the pattern IDs answered by this
	// access and the optimizer's TMC estimate for each.
	TripleIDs []int
	Ests      []float64
	// Est is the node-level estimate: the max member estimate for
	// star-merged (AND/OPT) accesses — the merged row set is keyed by
	// the shared entity — and the sum for OR merges.
	Est float64
}

// Translate builds and binds the relational query for a query plan
// over the given backend.
func Translate(q *sparql.Query, plan *PlanNode, backend Backend) (*Result, error) {
	g := &Gen{backend: backend, varCol: map[string]string{}, colTaken: map[string]bool{}}
	res := &Result{Ask: q.Ask, Plan: plan}
	if len(q.Where.AllTriples()) == 0 {
		return res, nil
	}
	out, err := g.Node(plan, Ctx{Vars: map[string]bool{}})
	if err != nil {
		return nil, err
	}
	final, err := g.finalSelect(q, out, res)
	if err != nil {
		return nil, err
	}
	rq := &rel.Query{CTEs: g.ctes, Body: final}
	if err := rel.Bind(rq); err != nil {
		return nil, fmt.Errorf("translator: %w", err)
	}
	res.Query, res.SQL = rq, rq.String()
	res.Traces = g.traces
	return res, nil
}

// Ctx tracks the translation context: the current CTE and the set of
// SPARQL variables bound in it (stored under their column names).
type Ctx struct {
	Cte  string
	Vars map[string]bool
}

// BoundVars returns the bound variables in sorted order.
func (c Ctx) BoundVars() []string {
	out := make([]string, 0, len(c.Vars))
	for v := range c.Vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Gen is the query-building state shared across backends: the CTE
// chain emitted so far and the column name of every variable.
type Gen struct {
	backend  Backend
	ctes     []rel.CTE
	varCol   map[string]string
	colTaken map[string]bool
	traces   []AccessTrace
}

// ColFor returns the stable column name of a SPARQL variable.
func (g *Gen) ColFor(v string) string {
	if c, ok := g.varCol[v]; ok {
		return c
	}
	b := make([]byte, 0, len(v)+2)
	b = append(b, "v_"...)
	for _, r := range v {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_':
			b = append(b, byte(r))
		case r >= 'A' && r <= 'Z':
			b = append(b, byte(r-'A'+'a'))
		default:
			b = append(b, '_')
		}
	}
	base := string(b)
	name := base
	for i := 2; g.colTaken[name]; i++ {
		name = base + "_" + strconv.Itoa(i)
	}
	g.colTaken[name] = true
	g.varCol[v] = name
	return name
}

// Emit appends body to the CTE chain and returns its name.
func (g *Gen) Emit(body *rel.Select) string {
	name := "QT" + strconv.Itoa(len(g.ctes)+1)
	g.ctes = append(g.ctes, rel.CTE{Name: name, Select: body})
	return name
}

// IDOf resolves a constant term to its dictionary id; absent terms get
// -1, which matches no row (the paper's empty-result fast path).
func (g *Gen) IDOf(t rdf.Term) int64 {
	id, ok := g.backend.LookupID(t)
	if !ok {
		return -1
	}
	return id
}

// Carry projects alias.col AS col for every bound variable.
func (g *Gen) Carry(in Ctx, alias string) []rel.SelectItem {
	var out []rel.SelectItem
	for _, v := range in.BoundVars() {
		c := g.ColFor(v)
		out = append(out, As(Col(alias, c), c))
	}
	return out
}

// Query building blocks, shared with the backends.

// Col is the column reference alias.col.
func Col(alias, col string) *rel.ColRef { return &rel.ColRef{Alias: alias, Column: col} }

// IntLit is an integer constant, a dictionary id or -1.
func IntLit(n int64) *rel.Lit { return &rel.Lit{V: rel.Int(n)} }

// Null is the NULL constant; literals are never written, so one node
// serves every query.
var Null = &rel.Lit{V: rel.Null}

// Eq is l = r.
func Eq(l, r rel.Expr) rel.Expr { return &rel.BinOp{Op: "=", L: l, R: r} }

// As is the select item e AS name.
func As(e rel.Expr, name string) rel.SelectItem { return rel.SelectItem{Expr: e, Alias: name} }

// From is the FROM item table AS alias.
func From(table, alias string) rel.FromItem { return rel.FromItem{Table: table, Alias: alias} }

// And is the conjunction of conds: nil for none, the condition itself
// for one.
func And(conds ...rel.Expr) rel.Expr { return chain("AND", conds) }

// Or is the disjunction of conds, like And.
func Or(conds ...rel.Expr) rel.Expr { return chain("OR", conds) }

func chain(op string, conds []rel.Expr) rel.Expr {
	switch len(conds) {
	case 0:
		return nil
	case 1:
		return conds[0]
	}
	return &rel.BoolOp{Op: op, Args: conds}
}

// Select is SELECT items FROM from WHERE conds (no WHERE without
// conds); with no items, for a row that binds no variable, it selects
// 1 AS one.
func Select(items []rel.SelectItem, from []rel.FromItem, conds []rel.Expr) *rel.Select {
	if len(items) == 0 {
		items = []rel.SelectItem{As(IntLit(1), "one")}
	}
	return &rel.Select{Cores: []*rel.SelectCore{{Items: items, From: from, Where: And(conds...)}}, Limit: -1}
}

// UnionAll chains the cores of arms, single-core selects, with UNION
// ALL.
func UnionAll(arms []*rel.Select) *rel.Select {
	u := &rel.Select{Limit: -1}
	for _, a := range arms {
		u.Cores = append(u.Cores, a.Cores[0])
	}
	return u
}

// Node translates one plan node, returning the output context.
func (g *Gen) Node(n *PlanNode, in Ctx) (Ctx, error) {
	switch n.Kind {
	case PlanAnd:
		cur := in
		var err error
		for _, c := range n.Children {
			cur, err = g.Node(c, cur)
			if err != nil {
				return Ctx{}, err
			}
		}
		return g.ApplyFilters(n.Filters, cur)
	case PlanOr:
		return g.orNode(n, in)
	case PlanOpt:
		return g.optNode(n, in)
	case PlanAccess:
		out, err := g.backend.Access(g, n, in)
		if err != nil {
			return Ctx{}, err
		}
		if out.Cte != "" {
			tr := AccessTrace{Cte: out.Cte, Method: n.Method, Merge: n.Merge}
			for _, it := range n.Items {
				tr.TripleIDs = append(tr.TripleIDs, it.Triple.ID)
				tr.Ests = append(tr.Ests, it.Est)
				if n.Merge == OrMerge {
					tr.Est += it.Est
				} else if it.Est > tr.Est {
					tr.Est = it.Est
				}
			}
			g.traces = append(g.traces, tr)
		}
		return g.ApplyFilters(n.Filters, out)
	}
	return Ctx{}, fmt.Errorf("translator: unknown plan node kind %d", n.Kind)
}

// orNode translates a UNION: arms evaluated from the same input
// context, results aligned on the union of their variables.
func (g *Gen) orNode(n *PlanNode, in Ctx) (Ctx, error) {
	var arms []Ctx
	allVars := map[string]bool{}
	for v := range in.Vars {
		allVars[v] = true
	}
	for _, c := range n.Children {
		ac, err := g.Node(c, in)
		if err != nil {
			return Ctx{}, err
		}
		for v := range ac.Vars {
			allVars[v] = true
		}
		arms = append(arms, ac)
	}
	ordered := make([]string, 0, len(allVars))
	for v := range allVars {
		ordered = append(ordered, v)
	}
	sort.Strings(ordered)
	parts := make([]*rel.Select, len(arms))
	for i, a := range arms {
		var sel []rel.SelectItem
		for _, v := range ordered {
			col := g.ColFor(v)
			if a.Vars[v] {
				sel = append(sel, As(Col("A", col), col))
			} else {
				sel = append(sel, As(Null, col))
			}
		}
		parts[i] = Select(sel, []rel.FromItem{From(a.Cte, "A")}, nil)
	}
	name := g.Emit(UnionAll(parts))
	out := Ctx{Cte: name, Vars: allVars}
	return g.ApplyFilters(n.Filters, out)
}

// optNode translates OPTIONAL as a left outer join of the input with
// the independently translated optional block on their shared
// variables.
func (g *Gen) optNode(n *PlanNode, in Ctx) (Ctx, error) {
	child := n.Children[0]
	// Translate the optional block standalone (unbound entity lookups
	// degrade to scans inside the backend's Access).
	oc, err := g.Node(child, Ctx{Vars: map[string]bool{}})
	if err != nil {
		return Ctx{}, err
	}
	oc, err = g.ApplyFilters(n.Filters, oc)
	if err != nil {
		return Ctx{}, err
	}
	if in.Cte == "" {
		// OPTIONAL with no required part: it degenerates to the block
		// itself (every solution of the block).
		return oc, nil
	}
	var shared, optOnly []string
	for v := range oc.Vars {
		if in.Vars[v] {
			shared = append(shared, v)
		} else {
			optOnly = append(optOnly, v)
		}
	}
	sort.Strings(shared)
	sort.Strings(optOnly)
	var on []rel.Expr
	for _, v := range shared {
		c := g.ColFor(v)
		on = append(on, Eq(Col("P", c), Col("O", c)))
	}
	if len(on) == 0 {
		on = append(on, Eq(IntLit(1), IntLit(1)))
	}
	sel := g.Carry(in, "P")
	for _, v := range optOnly {
		c := g.ColFor(v)
		sel = append(sel, As(Col("O", c), c))
	}
	left := From(in.Cte, "P")
	left.Joins = []rel.JoinClause{{Right: From(oc.Cte, "O"), On: And(on...)}}
	name := g.Emit(Select(sel, []rel.FromItem{left}, nil))
	outVars := map[string]bool{}
	for v := range in.Vars {
		outVars[v] = true
	}
	for v := range oc.Vars {
		outVars[v] = true
	}
	return Ctx{Cte: name, Vars: outVars}, nil
}

// ApplyFilters wraps the current CTE in a filtering select.
func (g *Gen) ApplyFilters(filters []sparql.Expr, in Ctx) (Ctx, error) {
	if len(filters) == 0 || in.Cte == "" {
		return in, nil
	}
	vars := map[string]rel.ColRef{}
	for v := range in.Vars {
		vars[v] = rel.ColRef{Alias: "P", Column: g.ColFor(v)}
	}
	conds := make([]rel.Expr, len(filters))
	for i, f := range filters {
		c, err := g.filterExpr(f, vars)
		if err != nil {
			return Ctx{}, err
		}
		conds[i] = c
	}
	name := g.Emit(Select(g.Carry(in, "P"), []rel.FromItem{From(in.Cte, "P")}, conds))
	return Ctx{Cte: name, Vars: in.Vars}, nil
}

// ValPos returns the value position of a triple under a method (the
// object for subject-keyed access, the subject for object-keyed).
func ValPos(t *sparql.TriplePattern, m MethodT) sparql.TermOrVar {
	if m == MethodACO {
		return t.S
	}
	return t.O
}

// finalSelect builds the outer SELECT: projection, DISTINCT, ORDER BY,
// LIMIT/OFFSET.
func (g *Gen) finalSelect(q *sparql.Query, out Ctx, res *Result) (*rel.Select, error) {
	from := []rel.FromItem{From(out.Cte, "P")}
	if q.Ask {
		res.Columns = []string{"ok"}
		s := Select([]rel.SelectItem{As(IntLit(1), "ok")}, from, nil)
		s.Limit = 1
		return s, nil
	}
	proj := q.ProjectedVars()
	var sel []rel.SelectItem
	for _, v := range proj {
		c := g.ColFor(v)
		if out.Vars[v] {
			sel = append(sel, As(Col("P", c), c))
		} else {
			sel = append(sel, As(Null, c))
		}
		res.Columns = append(res.Columns, v)
	}
	// ORDER BY keys that reference unprojected variables become hidden
	// trailing columns.
	projSet := map[string]bool{}
	for _, v := range proj {
		projSet[v] = true
	}
	var order []rel.OrderItem
	for _, k := range q.OrderBy {
		vars := map[string]bool{}
		sparql.ExprVars(k.Expr, vars)
		for v := range vars {
			if !projSet[v] && out.Vars[v] {
				c := g.ColFor(v)
				sel = append(sel, As(Col("P", c), c))
				res.Columns = append(res.Columns, v)
				res.Hidden++
				projSet[v] = true
			}
		}
		outCols := map[string]rel.ColRef{}
		for v := range out.Vars {
			outCols[v] = rel.ColRef{Column: g.ColFor(v)}
		}
		e, err := g.orderKey(k.Expr, outCols)
		if err != nil {
			return nil, err
		}
		order = append(order, rel.OrderItem{Expr: e, Desc: k.Desc})
	}
	s := Select(sel, from, nil)
	s.Cores[0].Distinct = q.Distinct
	s.OrderBy = order
	s.Limit = q.Limit
	if q.Offset > 0 {
		s.Offset = q.Offset
	}
	return s, nil
}

// orderKey builds an ORDER BY key over the projected columns.
func (g *Gen) orderKey(e sparql.Expr, vars map[string]rel.ColRef) (rel.Expr, error) {
	if v, ok := e.(*sparql.EVar); ok {
		c, bound := ref(vars, v.Name)
		if !bound {
			return Null, nil
		}
		return call("dsort", c), nil
	}
	return g.numExpr(e, vars)
}
