package db2rdf

import (
	"context"
	"fmt"
	"sync/atomic"

	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
)

// Property-path closures (p+, p*, p?) — the paper's stated future work
// (§6, "extend our system to support the SPARQL 1.1 standard (including
// property paths)"). Sequences, alternatives and inverses are desugared
// by the parser; closures are materialized here: the engine computes
// the transitive closure of the step relation and loads the pairs into
// a temporary indexed (entry, val) relation that the translator
// accesses through the closure's marker predicate.
//
// Zero-length path semantics (for p* and p?) are restricted to the
// nodes incident to the base relation's edges, rather than every term
// in the graph; this is the usual engine-friendly approximation and is
// documented in DESIGN.md.

// pathTableN numbers the temporary closure relations. It is advanced
// atomically so concurrent queries materializing closures each get
// unique PATHTMP_n names and cannot clobber one another's temp tables.
var pathTableN int64

// materializeClosures computes and loads each closure of the query,
// returning the marker->table map and a cleanup function that drops
// the temporary relations. The temporaries live in the snapshot's
// database — a frozen snapshot DB accepts per-query table creation
// under its own mutex, and the unique names keep concurrent queries on
// the same snapshot apart — so the generated SQL finds them in the
// very database it executes against. An abort (cancellation, deadline,
// budget) between closures drops any temporaries already created
// before the error is returned, so governance failures never leak
// PATHTMP tables.
func (s *Store) materializeClosures(ctx context.Context, snap *store.Snapshot, parsed *sparql.Query) (map[string]string, func(), error) {
	if len(parsed.Closures) == 0 {
		return nil, func() {}, nil
	}
	db := snap.DB()
	virtual := map[string]string{}
	var created []string
	cleanup := func() {
		for _, n := range created {
			db.DropTable(n)
		}
	}
	for _, cl := range parsed.Closures {
		pairs, err := s.closurePairs(ctx, snap, cl)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		name := fmt.Sprintf("PATHTMP_%d", atomic.AddInt64(&pathTableN, 1))
		tbl, err := db.CreateTable(name, rel.Schema{
			{Name: "entry"},
			{Name: "val"},
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		created = append(created, name)
		if err := tbl.CreateIndex("entry"); err != nil {
			cleanup()
			return nil, nil, err
		}
		if err := tbl.CreateIndex("val"); err != nil {
			cleanup()
			return nil, nil, err
		}
		for _, p := range pairs {
			if err := tbl.Insert(rel.Row{rel.Int(p[0]), rel.Int(p[1])}); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
		virtual[cl.Marker] = name
	}
	return virtual, cleanup, nil
}

// closurePairs evaluates the closure's base steps through ordinary
// (closure-free) queries and computes the reachability pairs. The step
// queries run under ctx and the store budgets like any other query,
// and the BFS itself polls cancellation at chunk granularity, so a
// pathological closure (quadratic reachability) can be aborted too.
func (s *Store) closurePairs(ctx context.Context, snap *store.Snapshot, cl sparql.Closure) ([][2]int64, error) {
	adj := map[int64][]int64{}
	nodes := map[int64]bool{}
	for _, step := range cl.Steps {
		// queryOn, not Query: the step queries must read the same
		// snapshot as the outer query, not whatever was published last.
		res, err := s.queryOn(ctx, snap, fmt.Sprintf("SELECT ?a ?b WHERE { ?a <%s> ?b }", step.IRI))
		if err != nil {
			return nil, fmt.Errorf("db2rdf: evaluating path step <%s>: %w", step.IRI, err)
		}
		for _, row := range res.Rows {
			if !row[0].Bound || !row[1].Bound {
				continue
			}
			aid, aok := s.inner.Dict.Lookup(row[0].Term)
			bid, bok := s.inner.Dict.Lookup(row[1].Term)
			if !aok || !bok {
				continue
			}
			if step.Inverse {
				aid, bid = bid, aid
			}
			adj[aid] = append(adj[aid], bid)
			nodes[aid] = true
			nodes[bid] = true
		}
	}
	pairSet := map[[2]int64]bool{}
	if cl.Max == 1 {
		// Zero-or-one: just the single-step edges.
		for a, bs := range adj {
			for _, b := range bs {
				pairSet[[2]int64{a, b}] = true
			}
		}
	} else {
		// Transitive closure: BFS from every source node, checking
		// cancellation every 1024 pops (the executor's chunk granularity).
		popped := 0
		for start := range adj {
			visited := map[int64]bool{}
			queue := append([]int64(nil), adj[start]...)
			for len(queue) > 0 {
				if popped++; popped&1023 == 0 {
					if err := ctxErr(ctx); err != nil {
						return nil, err
					}
				}
				n := queue[0]
				queue = queue[1:]
				if visited[n] {
					continue
				}
				visited[n] = true
				pairSet[[2]int64{start, n}] = true
				queue = append(queue, adj[n]...)
			}
		}
	}
	if cl.Min == 0 {
		for n := range nodes {
			pairSet[[2]int64{n, n}] = true
		}
	}
	out := make([][2]int64, 0, len(pairSet))
	for p := range pairSet {
		out = append(out, p)
	}
	return out, nil
}
