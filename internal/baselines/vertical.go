package baselines

import (
	"fmt"
	"io"
	"sort"

	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
	"db2rdf/internal/translator"
)

// VerticalOptions configures a VerticalStore.
type VerticalOptions struct {
	// Naive disables the hybrid optimizer.
	Naive bool
}

// VerticalStore is the predicate-oriented baseline (Abadi et al.): one
// binary relation COL_<n>(entry, val) per predicate, indexed on both
// columns. New predicates require new relations — the dynamic-schema
// weakness the paper calls out in §2.
type VerticalStore struct {
	DB    *rel.DB
	Dict  *dict.Dict
	stats *counts
	opts  VerticalOptions
	// tableFor maps a predicate id to its relation name.
	tableFor map[int64]string
	seen     map[[3]int64]bool
}

// NewVerticalStore creates an empty predicate-oriented baseline.
func NewVerticalStore(opts VerticalOptions) (*VerticalStore, error) {
	db := rel.NewDB()
	d := dict.New()
	vs := &VerticalStore{
		DB:       db,
		Dict:     d,
		stats:    newCounts(d),
		opts:     opts,
		tableFor: make(map[int64]string),
		seen:     make(map[[3]int64]bool),
	}
	store.RegisterValueFuncs(db, vs.Dict)
	return vs, nil
}

// Insert adds one triple, creating the predicate's relation on first
// sight (the schema change the paper's §2 complains about).
func (s *VerticalStore) Insert(t rdf.Triple) error {
	sid := s.Dict.Encode(t.S)
	pid := s.Dict.Encode(t.P)
	oid := s.Dict.Encode(t.O)
	key := [3]int64{sid, pid, oid}
	if s.seen[key] {
		return nil
	}
	s.seen[key] = true
	name, ok := s.tableFor[pid]
	if !ok {
		name = fmt.Sprintf("COL_%d", pid)
		tbl, err := s.DB.CreateTable(name, rel.Schema{
			{Name: "entry"},
			{Name: "val"},
		})
		if err != nil {
			return err
		}
		if err := tbl.CreateIndex("entry"); err != nil {
			return err
		}
		if err := tbl.CreateIndex("val"); err != nil {
			return err
		}
		s.tableFor[pid] = name
	}
	s.stats.record(sid, oid)
	return s.DB.Table(name).Insert(rel.Row{rel.ID(sid), rel.ID(oid)})
}

// LoadTriples inserts a slice of triples.
func (s *VerticalStore) LoadTriples(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := s.Insert(t); err != nil {
			return err
		}
	}
	return nil
}

// Load reads N-Triples from r.
func (s *VerticalStore) Load(r io.Reader) (int, error) {
	rd := rdf.NewReader(r)
	n := 0
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := s.Insert(t); err != nil {
			return n, err
		}
		n++
	}
}

// TableCount returns the number of predicate relations (the paper's
// "thousands of relations" concern).
func (s *VerticalStore) TableCount() int { return len(s.tableFor) }

// Query runs a SPARQL query against the baseline.
func (s *VerticalStore) Query(q string) (*Results, error) {
	return runQuery(q, s.DB, s.Dict, s.stats, s, s.opts.Naive)
}

// SQLFor returns the generated SQL for a query (Fig. 2(d)).
func (s *VerticalStore) SQLFor(q string) (string, error) {
	return sqlFor(q, s.Dict, s.stats, s, s.opts.Naive)
}

// LookupID implements translator.Backend.
func (s *VerticalStore) LookupID(t rdf.Term) (int64, bool) { return s.Dict.Lookup(t) }

// MergeSafe implements translator.Backend: vertical partitions cannot
// answer stars with one access.
func (s *VerticalStore) MergeSafe(translator.MethodT, ...*sparql.TriplePattern) bool { return false }

// Access implements translator.Backend: a constant predicate accesses
// its own binary relation (Figure 2(d)); a variable predicate must
// union every relation in the store — the vertical layout's structural
// weakness.
func (s *VerticalStore) Access(g *translator.Gen, n *translator.PlanNode, in translator.Ctx) (translator.Ctx, error) {
	if len(n.Items) != 1 {
		return translator.Ctx{}, fmt.Errorf("baselines: vertical plans never merge")
	}
	t := n.Items[0].Triple
	if !t.P.IsVar {
		pid, ok := s.Dict.Lookup(t.P.Term)
		if !ok {
			// Unknown predicate: no relation exists; emit a CTE of
			// the right shape and no rows.
			return s.emptyAccess(g, t, in)
		}
		return translator.PositionalAccess(g, t, in, s.tableFor[pid], "entry", "", "val")
	}
	// Variable predicate: UNION ALL over all predicate relations.
	return s.varPredAccess(g, t, in)
}

// emptyAccess emits a CTE with the right shape and zero rows: the
// carried columns and NULLs, selected from the input CTE (or any table
// when there is none) under WHERE 1 = 0.
func (s *VerticalStore) emptyAccess(g *translator.Gen, t *sparql.TriplePattern, in translator.Ctx) (translator.Ctx, error) {
	outVars := map[string]bool{}
	for v := range in.Vars {
		outVars[v] = true
	}
	sel := g.Carry(in, "P")
	for _, tv := range []sparql.TermOrVar{t.S, t.P, t.O} {
		if tv.IsVar && !outVars[tv.Var] {
			sel = append(sel, translator.As(translator.Null, g.ColFor(tv.Var)))
			outVars[tv.Var] = true
		}
	}
	from := translator.FromInput(in)
	if len(from) == 0 {
		from = []rel.FromItem{translator.From(s.anyTable(), "Z")}
	}
	never := translator.Eq(translator.IntLit(1), translator.IntLit(0))
	name := g.Emit(translator.Select(sel, from, []rel.Expr{never}))
	return translator.Ctx{Cte: name, Vars: outVars}, nil
}

// anyTable returns an arbitrary predicate relation name (for the
// empty-access shape); stores with no data get a dummy table.
func (s *VerticalStore) anyTable() string {
	names := make([]string, 0, len(s.tableFor))
	for _, n := range s.tableFor {
		names = append(names, n)
	}
	if len(names) == 0 {
		if s.DB.Table("COL_EMPTY") == nil {
			t, _ := s.DB.CreateTable("COL_EMPTY", rel.Schema{{Name: "entry"}, {Name: "val"}})
			_ = t
		}
		return "COL_EMPTY"
	}
	sort.Strings(names)
	return names[0]
}

// varPredAccess unions every predicate relation, exposing the
// predicate id as a constant per arm.
func (s *VerticalStore) varPredAccess(g *translator.Gen, t *sparql.TriplePattern, in translator.Ctx) (translator.Ctx, error) {
	if len(s.tableFor) == 0 {
		return s.emptyAccess(g, t, in)
	}
	outVars := map[string]bool{}
	for v := range in.Vars {
		outVars[v] = true
	}
	pids := make([]int64, 0, len(s.tableFor))
	for pid := range s.tableFor {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	predBound := in.Vars[t.P.Var]
	arms := make([]*rel.Select, len(pids))
	for i, pid := range pids {
		sel := g.Carry(in, "P")
		var conds []rel.Expr
		local := map[string]string{}
		handle := func(tv sparql.TermOrVar, col string) {
			switch {
			case !tv.IsVar:
				conds = append(conds, translator.Eq(translator.Col("T", col), translator.IntLit(g.IDOf(tv.Term))))
			case in.Vars[tv.Var]:
				conds = append(conds, translator.Eq(translator.Col("T", col), translator.Col("P", g.ColFor(tv.Var))))
			case local[tv.Var] != "":
				conds = append(conds, translator.Eq(translator.Col("T", col), translator.Col("T", local[tv.Var])))
			default:
				local[tv.Var] = col
				sel = append(sel, translator.As(translator.Col("T", col), g.ColFor(tv.Var)))
			}
		}
		handle(t.S, "entry")
		handle(t.O, "val")
		switch {
		case predBound:
			conds = append(conds, translator.Eq(translator.IntLit(pid), translator.Col("P", g.ColFor(t.P.Var))))
		case local[t.P.Var] != "":
			// The predicate variable repeats the subject or object
			// variable: an equality, not a second exposure.
			conds = append(conds, translator.Eq(translator.IntLit(pid), translator.Col("T", local[t.P.Var])))
		default:
			sel = append(sel, translator.As(translator.IntLit(pid), g.ColFor(t.P.Var)))
		}
		arms[i] = translator.Select(sel, translator.FromInput(in, translator.From(s.tableFor[pid], "T")), conds)
	}
	name := g.Emit(translator.UnionAll(arms))
	for _, tv := range []sparql.TermOrVar{t.S, t.P, t.O} {
		if tv.IsVar {
			outVars[tv.Var] = true
		}
	}
	return translator.Ctx{Cte: name, Vars: outVars}, nil
}
