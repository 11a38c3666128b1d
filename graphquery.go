package db2rdf

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
)

// QueryGraph executes a CONSTRUCT or DESCRIBE query, returning the
// resulting triples (deduplicated, in deterministic first-seen order).
// The whole operation — including the fan-out queries a DESCRIBE runs
// per resource — reads one published snapshot.
func (s *Store) QueryGraph(q string) ([]rdf.Triple, error) {
	return s.QueryGraphContext(context.Background(), q)
}

// QueryGraphContext is QueryGraph under a context, with the same
// governance semantics as QueryContext: typed abort errors, the
// store's deadline and budgets applied (to every constituent query —
// a DESCRIBE fans out into one query per resource), panics contained.
func (s *Store) QueryGraphContext(ctx context.Context, q string) (out []rdf.Triple, err error) {
	start := time.Now()
	// One metrics observation for the whole graph query (the secondary
	// queries it runs internally are not counted separately); rows
	// emitted counts the returned triples.
	defer func() { s.observeQuery(q, time.Since(start), len(out), nil, err) }()
	defer guard(q, &err)
	ctx, cancel := s.governCtx(ctx)
	defer cancel()
	parsed, err := parseQuery(q)
	if err != nil {
		return nil, err
	}
	snap := s.inner.Snapshot()
	switch {
	case parsed.Construct != nil:
		out, err = s.construct(ctx, snap, parsed, q)
	case len(parsed.Describe) > 0:
		out, err = s.describe(ctx, snap, parsed)
	default:
		return nil, fmt.Errorf("db2rdf: QueryGraph wants a CONSTRUCT or DESCRIBE query; use Query for SELECT/ASK")
	}
	return out, attachQuery(q, err)
}

// construct runs the WHERE clause and instantiates the template once
// per solution (instantiateTemplate, shared with Update).
func (s *Store) construct(ctx context.Context, snap *store.Snapshot, parsed *sparql.Query, original string) ([]rdf.Triple, error) {
	res, err := s.queryOn(ctx, snap, original) // reparsed internally; keeps one code path
	if err != nil {
		return nil, err
	}
	return instantiateTemplate(parsed.Construct, res, false), nil
}

// queryPattern builds a one-triple-pattern SELECT query directly as an
// AST and runs it. Constructing the AST (rather than rendering terms
// into a query string and reparsing) keeps terms exact — escaped
// literals and blank nodes do not survive a round trip through the
// SPARQL grammar — and skips a full parse per lookup.
func (s *Store) queryPattern(ctx context.Context, snap *store.Snapshot, sub, pred, obj sparql.TermOrVar, vars []string) (*Results, error) {
	where := &sparql.Pattern{Kind: sparql.Simple}
	tp := &sparql.TriplePattern{ID: 1, S: sub, P: pred, O: obj, Parent: where}
	where.Triples = []*sparql.TriplePattern{tp}
	return s.run(ctx, snap, &sparql.Query{Vars: vars, Where: where, Limit: -1})
}

// describe returns every triple in which each described resource
// appears as subject or object. Variable resources are resolved
// through the WHERE clause first.
func (s *Store) describe(ctx context.Context, snap *store.Snapshot, parsed *sparql.Query) ([]rdf.Triple, error) {
	var resources []rdf.Term
	needWhere := false
	for _, tv := range parsed.Describe {
		if tv.IsVar {
			needWhere = true
		} else {
			resources = append(resources, tv.Term)
		}
	}
	if needWhere {
		if len(parsed.Where.AllTriples()) == 0 {
			return nil, fmt.Errorf("db2rdf: DESCRIBE with variables requires a WHERE clause")
		}
		res, err := s.run(ctx, snap, parsed)
		if err != nil {
			return nil, err
		}
		varIdx := map[string]int{}
		for i, v := range res.Vars {
			varIdx[v] = i
		}
		seen := map[rdf.Term]bool{}
		for _, tv := range parsed.Describe {
			if !tv.IsVar {
				continue
			}
			i, ok := varIdx[tv.Var]
			if !ok {
				continue
			}
			for _, row := range res.Rows {
				if row[i].Bound && !seen[row[i].Term] {
					seen[row[i].Term] = true
					resources = append(resources, row[i].Term)
				}
			}
		}
	}
	var out []rdf.Triple
	seen := map[rdf.Triple]bool{}
	add := func(tr rdf.Triple) {
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	for _, r := range resources {
		if r.IsLiteral() {
			continue
		}
		// Outgoing and incoming edges, via directly built ASTs so blank
		// nodes and exotic literals are handled exactly.
		res, err := s.queryPattern(ctx, snap, sparql.Constant(r), sparql.Variable("p"), sparql.Variable("o"), []string{"p", "o"})
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			if row[0].Bound && row[1].Bound {
				add(rdf.NewTriple(r, row[0].Term, row[1].Term))
			}
		}
		res, err = s.queryPattern(ctx, snap, sparql.Variable("s"), sparql.Variable("p"), sparql.Constant(r), []string{"s", "p"})
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			if row[0].Bound && row[1].Bound {
				add(rdf.NewTriple(row[0].Term, row[1].Term, r))
			}
		}
	}
	return out, nil
}

// Export writes the whole store back out as N-Triples (reconstructed
// from the relational representation through the query pipeline). The
// output is canonically sorted, so two stores holding the same triple
// set export byte-identical documents regardless of load order or
// loader (sequential or parallel).
func (s *Store) Export(w io.Writer) (int, error) {
	// Export runs through the query pipeline, so the store's governance
	// options apply: an Export under MaxResultRows smaller than the
	// store's triple count will (correctly) trip the budget.
	ctx, cancel := s.governCtx(context.Background())
	defer cancel()
	// One snapshot load: the export is the exact content of a single
	// published epoch, even while writers keep publishing.
	res, err := s.queryOn(ctx, s.inner.Snapshot(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		return 0, err
	}
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		if !row[0].Bound || !row[1].Bound || !row[2].Bound {
			continue
		}
		lines = append(lines, rdf.NewTriple(row[0].Term, row[1].Term, row[2].Term).String())
	}
	sort.Strings(lines)
	out := rdf.NewWriter(w)
	n := 0
	for _, line := range lines {
		if err := out.WriteLine(line); err != nil {
			return n, err
		}
		n++
	}
	return n, out.Flush()
}
