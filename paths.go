package db2rdf

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
)

// Property-path closures (p+, p*, p?) — the paper's stated future work
// (§6, "extend our system to support the SPARQL 1.1 standard (including
// property paths)"). Sequences, alternatives and inverses are desugared
// by the parser; a closure compiles to an access of the (entry, val)
// relation sparql.Closure.Relation names, whose pairs are computed when
// the plan runs, once per published snapshot (store.Snapshot.Closure).
//
// Zero-length paths (p* and p?) match a constant endpoint that is in
// the dictionary; with both endpoints variables they match only the
// nodes incident to the closure's edges, not every term in the graph
// (DESIGN.md §6).

// closureDB returns the database cp executes against on snap: the
// snapshot's own, overlaid with the relations of cp's closures.
func (s *Store) closureDB(ctx context.Context, snap *store.Snapshot, cp *compiledPlan) (*rel.DB, error) {
	if len(cp.closures) == 0 {
		return snap.DB(), nil
	}
	tables := make([]*rel.Table, len(cp.closures))
	for i, cl := range cp.closures {
		name := cl.Relation()
		t, err := snap.Closure(name, func() (*rel.Table, error) { return s.closureTable(ctx, snap, name, cl) })
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	return snap.DB().With(tables...), nil
}

// closureTable computes the closure's pairs on snap into a frozen
// relation named name, indexed on both columns. The steps are ordinary
// queries — plan-cached, governed by ctx and the store budgets — whose
// rows are read as dictionary ids; the BFS (one level deep for p?)
// polls cancellation every 1024 pops, the executor's chunk
// granularity, so a quadratic closure can be aborted too.
func (s *Store) closureTable(ctx context.Context, snap *store.Snapshot, name string, cl sparql.Closure) (*rel.Table, error) {
	adj := map[int64][]int64{}
	self := map[int64]bool{} // nodes a zero-length path joins to themselves
	for _, step := range cl.Steps {
		rows, err := s.stepRows(ctx, snap, fmt.Sprintf("SELECT ?a ?b WHERE { ?a <%s> ?b }", step.IRI))
		if err != nil {
			return nil, fmt.Errorf("db2rdf: evaluating path step <%s>: %w", step.IRI, err)
		}
		for _, row := range rows {
			a, b := row[0].I, row[1].I
			if step.Inverse {
				a, b = b, a
			}
			adj[a] = append(adj[a], b)
			self[a], self[b] = true, true
		}
	}
	if cl.Min > 0 {
		clear(self)
	}
	for _, t := range cl.Reflexive() {
		if id, ok := snap.LookupID(t); ok {
			self[id] = true
		}
	}
	if cl.Classes {
		// The objects of the stored rdf:type triples. The predicate is a
		// filtered variable so that the inference rewrite, which runs
		// before filter unification folds it into a constant, leaves
		// this query alone: rewritten, it would need this very closure.
		rows, err := s.stepRows(ctx, snap, fmt.Sprintf("SELECT DISTINCT ?c WHERE { ?x ?p ?c FILTER(?p = <%s>) }", rdf.RDFType))
		if err != nil {
			return nil, fmt.Errorf("db2rdf: evaluating the declared classes: %w", err)
		}
		for _, row := range rows {
			self[row[0].I] = true
		}
	}
	var pairs [][2]int64
	for n := range self {
		pairs = append(pairs, [2]int64{n, n})
	}
	popped := 0
	for start, next := range adj {
		seen := map[int64]bool{}
		for queue := slices.Clone(next); len(queue) > 0; queue = queue[1:] {
			if popped++; popped&1023 == 0 {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
			}
			if n := queue[0]; !seen[n] {
				seen[n] = true
				pairs = append(pairs, [2]int64{start, n})
				if cl.Max != 1 {
					queue = append(queue, adj[n]...)
				}
			}
		}
	}
	slices.SortFunc(pairs, func(x, y [2]int64) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	t := rel.NewTable(name, rel.Schema{{Name: "entry"}, {Name: "val"}})
	for _, p := range slices.Compact(pairs) {
		if err := t.Insert(rel.Row{rel.ID(p[0]), rel.ID(p[1])}); err != nil {
			return nil, err
		}
	}
	if err := errors.Join(t.CreateIndex("entry"), t.CreateIndex("val")); err != nil {
		return nil, err
	}
	return t.Publish(), nil
}

// stepRows runs one closure-free query on snap and returns its rows,
// still in dictionary ids.
func (s *Store) stepRows(ctx context.Context, snap *store.Snapshot, q string) ([]rel.Row, error) {
	sol, _, _, err := s.queryFull(ctx, snap, q, false)
	if err != nil {
		return nil, err
	}
	return sol.rows, nil
}
