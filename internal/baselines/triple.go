// Package baselines implements the two relational RDF schemas the
// paper compares DB2RDF against (§2, §4): the classic three-column
// triple-store (Jena SDB / Virtuoso style) and the predicate-oriented
// vertical partitioning of Abadi et al. (one binary relation per
// predicate, C-Store/SW-Store style). Both run over the same embedded
// relational engine and reuse the shared SPARQL parser, optimizer and
// translation framework, so measured differences isolate the schema
// and plan quality — exactly the axes the paper's Figures 3 and 15-18
// vary.
package baselines

import (
	"fmt"
	"io"

	"db2rdf/internal/dict"
	"db2rdf/internal/optimizer"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
	"db2rdf/internal/translator"
)

// TripleOptions configures a TripleStore.
type TripleOptions struct {
	// IndexSubject, IndexObject, IndexPredicate select the hash
	// indexes built on the TRIPLES relation. The paper's §2.1
	// micro-benchmark indexes subjects only; the full evaluation gives
	// comparators "all recommended indexes".
	IndexSubject   bool
	IndexObject    bool
	IndexPredicate bool
	// Naive disables the hybrid optimizer (document-order flow).
	Naive bool
}

// TripleStore is the single-relation baseline: TRIPLES(subj, pred, obj)
// with dictionary-encoded columns.
type TripleStore struct {
	DB    *rel.DB
	Dict  *dict.Dict
	table *rel.Table
	stats *counts
	opts  TripleOptions
	seen  map[[3]int64]bool
}

// NewTripleStore creates an empty triple-store baseline.
func NewTripleStore(opts TripleOptions) (*TripleStore, error) {
	db := rel.NewDB()
	t, err := db.CreateTable("TRIPLES", rel.Schema{
		{Name: "subj"},
		{Name: "pred"},
		{Name: "obj"},
	})
	if err != nil {
		return nil, err
	}
	if opts.IndexSubject {
		if err := t.CreateIndex("subj"); err != nil {
			return nil, err
		}
	}
	if opts.IndexObject {
		if err := t.CreateIndex("obj"); err != nil {
			return nil, err
		}
	}
	if opts.IndexPredicate {
		if err := t.CreateIndex("pred"); err != nil {
			return nil, err
		}
	}
	d := dict.New()
	ts := &TripleStore{
		DB:    db,
		Dict:  d,
		table: t,
		stats: newCounts(d),
		seen:  make(map[[3]int64]bool),
	}
	registerValueFuncs(db, ts.Dict)
	return ts, nil
}

// Insert adds one triple (set semantics).
func (s *TripleStore) Insert(t rdf.Triple) error {
	sid := s.Dict.Encode(t.S)
	pid := s.Dict.Encode(t.P)
	oid := s.Dict.Encode(t.O)
	key := [3]int64{sid, pid, oid}
	if s.seen[key] {
		return nil
	}
	s.seen[key] = true
	s.stats.record(sid, oid)
	return s.table.Insert(rel.Row{rel.ID(sid), rel.ID(pid), rel.ID(oid)})
}

// LoadTriples inserts a slice of triples.
func (s *TripleStore) LoadTriples(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := s.Insert(t); err != nil {
			return err
		}
	}
	return nil
}

// Load reads N-Triples from r.
func (s *TripleStore) Load(r io.Reader) (int, error) {
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

// Query runs a SPARQL query against the baseline.
func (s *TripleStore) Query(q string) (*Results, error) {
	return runQuery(q, s.DB, s.Dict, s.stats, s, s.opts.Naive)
}

// SQLFor returns the generated SQL for a query (for tests and Fig. 2).
func (s *TripleStore) SQLFor(q string) (string, error) {
	return sqlFor(q, s.Dict, s.stats, s, s.opts.Naive)
}

// LookupID implements translator.Backend.
func (s *TripleStore) LookupID(t rdf.Term) (int64, bool) { return s.Dict.Lookup(t) }

// MergeSafe implements translator.Backend: the triple-store has no
// star rows, so merging never applies.
func (s *TripleStore) MergeSafe(translator.MethodT, ...*sparql.TriplePattern) bool { return false }

// Access implements translator.Backend: each triple pattern becomes a
// self-join against TRIPLES (the SQL of Figure 2(c)).
func (s *TripleStore) Access(g *translator.Gen, n *translator.PlanNode, in translator.Ctx) (translator.Ctx, error) {
	if len(n.Items) != 1 {
		return translator.Ctx{}, fmt.Errorf("baselines: triple-store plans never merge")
	}
	return translator.PositionalAccess(g, n.Items[0].Triple, in, "TRIPLES", "subj", "pred", "obj")
}

// Results mirrors the facade's decoded result shape for baselines.
type Results struct {
	Vars  []string
	Rows  [][]rdf.Term // zero Term means unbound
	Bound [][]bool
	Ask   bool
	IsAsk bool
}

// runQuery is the shared parse-optimize-plan-translate-execute-decode
// pipeline for baseline stores.
func runQuery(q string, db *rel.DB, d *dict.Dict, stats optimizer.Stats, backend translator.Backend, naive bool) (*Results, error) {
	parsed, err := sparql.Parse(q)
	if err != nil {
		return nil, err
	}
	sparql.UnifyEqualityFilters(parsed)
	tr, err := translate(parsed, stats, backend, naive)
	if err != nil {
		return nil, err
	}
	out := &Results{IsAsk: tr.Ask}
	if tr.Query == nil {
		out.Ask = tr.Ask
		if !tr.Ask {
			out.Vars = parsed.ProjectedVars()
		}
		return out, nil
	}
	rs, err := db.Exec(tr.Query)
	if err != nil {
		return nil, fmt.Errorf("baselines: executing the translated query: %w", err)
	}
	if tr.Ask {
		out.Ask = len(rs.Rows) > 0
		return out, nil
	}
	keep := len(tr.Columns) - tr.Hidden
	out.Vars = tr.Columns[:keep]
	for _, row := range rs.Rows {
		terms := make([]rdf.Term, keep)
		bound := make([]bool, keep)
		for i := 0; i < keep; i++ {
			if row[i].IsNull() {
				continue
			}
			t, err := d.Decode(row[i].I)
			if err != nil {
				return nil, err
			}
			terms[i] = t
			bound[i] = true
		}
		out.Rows = append(out.Rows, terms)
		out.Bound = append(out.Bound, bound)
	}
	return out, nil
}

func translate(parsed *sparql.Query, stats optimizer.Stats, backend translator.Backend, naive bool) (*translator.Result, error) {
	var exec *optimizer.ExecNode
	var err error
	if naive {
		exec, _ = optimizer.OptimizeNaive(parsed, stats)
	} else {
		exec, _, err = optimizer.Optimize(parsed, stats)
		if err != nil {
			return nil, err
		}
	}
	plan := translator.NewPlanner(backend).BuildPlan(exec)
	return translator.Translate(parsed, plan, backend)
}

func sqlFor(q string, d *dict.Dict, stats optimizer.Stats, backend translator.Backend, naive bool) (string, error) {
	parsed, err := sparql.Parse(q)
	if err != nil {
		return "", err
	}
	tr, err := translate(parsed, stats, backend, naive)
	if err != nil {
		return "", err
	}
	return tr.SQL, nil
}

// registerValueFuncs installs the same dictionary value functions the
// DB2RDF store registers, bound to the baseline's dictionary.
func registerValueFuncs(db *rel.DB, d *dict.Dict) {
	// Reuse the store implementation by constructing a lightweight
	// shim store is not possible (store owns its tables), so register
	// through a throwaway helper.
	store.RegisterValueFuncs(db, d)
}
