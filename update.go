package db2rdf

import (
	"context"
	"fmt"
	"time"

	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// UpdateResult reports what a SPARQL update changed. Counts are of
// distinct triples actually added/removed — duplicate inserts and
// deletes of absent triples do not count, and an update whose counts
// are both zero leaves the store epoch (and therefore every cached
// query plan) untouched.
type UpdateResult struct {
	Inserted int
	Deleted  int
}

// Update executes a SPARQL 1.1 update request (INSERT DATA, DELETE
// DATA, DELETE/INSERT ... WHERE, CLEAR; operations separated by ';').
func (s *Store) Update(u string) (*UpdateResult, error) {
	return s.UpdateContext(context.Background(), u)
}

// Delete removes one triple directly (the programmatic twin of a
// one-triple DELETE DATA), reporting whether it was present.
func (s *Store) Delete(t rdf.Triple) (bool, error) {
	removed, err := s.inner.Delete(t)
	if removed {
		s.metrics.deletedTriples.Add(1)
	}
	return removed, err
}

// DeleteTriples removes a slice of triples under one write lock,
// returning the number actually removed.
func (s *Store) DeleteTriples(ts []rdf.Triple) (int, error) {
	n, err := s.inner.DeleteTriples(ts)
	if n > 0 {
		s.metrics.deletedTriples.Add(uint64(n))
	}
	return n, err
}

// UpdateContext is Update with a caller context. The whole request —
// WHERE evaluation included — runs under the store write lock, so
// readers see either the pre-update or post-update state, never a
// half-applied delta (single-writer snapshot semantics). Governance
// applies as for queries: the configured QueryTimeout bounds the
// request and the executor budgets bound WHERE evaluation.
//
// On error the returned result still carries the counts applied before
// the failure; the epoch is bumped iff anything changed, so cached
// plans never serve stale data after a partial update.
func (s *Store) UpdateContext(ctx context.Context, u string) (res *UpdateResult, err error) {
	start := time.Now()
	defer func() {
		deleted := 0
		if res != nil {
			deleted = res.Deleted
		}
		s.metrics.observeUpdate(time.Since(start), deleted, err)
	}()
	defer guard(u, &err)
	ctx, cancel := s.governCtx(ctx)
	defer cancel()
	parsed, err := sparql.ParseUpdate(u)
	if err != nil {
		return nil, err
	}

	result := &UpdateResult{}
	s.inner.Lock()
	defer s.inner.Unlock()
	changed := 0
	// Registered after Unlock, so it runs first (LIFO): exactly one
	// snapshot publish (and epoch bump) per request, while the write
	// lock is still held, and only when the store content actually
	// changed — a no-op update keeps the current snapshot and every
	// cached plan valid.
	defer func() {
		if changed > 0 {
			if perr := s.inner.PublishLocked(); perr != nil && err == nil {
				res, err = result, perr
			}
		}
	}()

	for _, op := range parsed.Ops {
		if err := ctxErr(ctx); err != nil {
			return result, err
		}
		switch op.Kind {
		case sparql.OpInsertData:
			fresh, err := s.inner.InsertTriplesLocked(op.Data)
			result.Inserted += fresh
			changed += fresh
			if err != nil {
				return result, err
			}
		case sparql.OpDeleteData:
			for _, t := range op.Data {
				removed, err := s.inner.DeleteLocked(t)
				if removed {
					result.Deleted++
					changed++
				}
				if err != nil {
					return result, err
				}
			}
		case sparql.OpClear:
			n := s.inner.ClearLocked()
			result.Deleted += n
			changed += n
		case sparql.OpModify:
			if err := s.applyModify(ctx, parsed.Prefixes, op, result, &changed); err != nil {
				return result, err
			}
		default:
			return result, fmt.Errorf("db2rdf: unsupported update operation %v", op.Kind)
		}
	}
	return result, nil
}

// applyModify runs one DELETE/INSERT ... WHERE operation: evaluate the
// pattern against the current state, instantiate both templates over
// the full solution set, then apply every delete before any insert
// (SPARQL 1.1 Update §3.1.3), the inserts as one bulk load. The caller holds the store write lock;
// WHERE evaluation runs on a live snapshot so it sees
// the request's own earlier mutations, which are not published yet.
func (s *Store) applyModify(ctx context.Context, prefixes map[string]string, op *sparql.UpdateOp, result *UpdateResult, changed *int) error {
	q := &sparql.Query{
		Prefixes: prefixes,
		Star:     true, // project every pattern variable for instantiation
		Where:    op.Where,
		Closures: op.Closures,
		Limit:    -1,
	}
	res, err := s.run(ctx, s.inner.LiveSnapshot(), q)
	if err != nil {
		return err
	}
	// The full delta is computed before the first mutation, so template
	// instantiation always reads the pre-operation solution set.
	del := instantiateTemplate(op.DeleteTempl, res, false)
	ins := instantiateTemplate(op.InsertTempl, res, true)
	for _, t := range del {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		removed, err := s.inner.DeleteLocked(t)
		if removed {
			result.Deleted++
			*changed++
		}
		if err != nil {
			return err
		}
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	fresh, err := s.inner.InsertTriplesLocked(ins)
	result.Inserted += fresh
	*changed += fresh
	return err
}

// instantiateTemplate grounds a CONSTRUCT or DELETE/INSERT template
// against every solution, deduplicated in first-seen order: solutions
// leaving a template variable unbound are skipped for that triple, as
// are ill-formed instantiations (literal subject, non-IRI predicate),
// per the SPARQL spec. freshBlanks controls blank node handling — an
// INSERT template's blank label yields a fresh blank node per solution
// (shared across the triples of that solution); DELETE templates have
// none (rejected at parse).
func instantiateTemplate(tmpl []*sparql.TriplePattern, res *Results, freshBlanks bool) []rdf.Triple {
	if len(tmpl) == 0 {
		return nil
	}
	varIdx := map[string]int{}
	for i, v := range res.Vars {
		varIdx[v] = i
	}
	var out []rdf.Triple
	seen := map[rdf.Triple]bool{}
	for rowNo, row := range res.Rows {
		resolve := func(tv sparql.TermOrVar) (rdf.Term, bool) {
			if !tv.IsVar {
				return tv.Term, true
			}
			if freshBlanks && len(tv.Var) > 7 && tv.Var[:7] == "_bnode_" {
				return rdf.NewBlank(fmt.Sprintf("%s_u%d", tv.Var[7:], rowNo)), true
			}
			i, ok := varIdx[tv.Var]
			if !ok || i >= len(row) || !row[i].Bound {
				return rdf.Term{}, false
			}
			return row[i].Term, true
		}
		for _, tp := range tmpl {
			sub, ok := resolve(tp.S)
			if !ok || sub.IsLiteral() {
				continue
			}
			pred, ok := resolve(tp.P)
			if !ok || !pred.IsIRI() {
				continue
			}
			obj, ok := resolve(tp.O)
			if !ok {
				continue
			}
			t := rdf.NewTriple(sub, pred, obj)
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}
