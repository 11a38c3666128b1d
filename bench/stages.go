package main

import (
	"context"
	"fmt"

	"db2rdf"
	"db2rdf/internal/optimizer"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/store"
	"db2rdf/internal/translator"
)

// The stage chain replays Store.QueryContext from outside, one public
// function per layer, in the order db2rdf.queryFull and
// executeCompiledStats call them. stages_test.go holds it to the real
// pipeline: a refactor that changes the chain fails there first.

// Span names of the stages, also the stems of the per-layer metrics.
const (
	stParse    = "sparql.parse"
	stOptimize = "optimizer.optimize"
	stPlan     = "translator.plan"
	stSQLGen   = "translator.sqlgen"
	stRelParse = "rel.parse"
	stExec     = "rel.exec"
	stDecode   = "dict.decode"
)

var compileStages = []string{stParse, stOptimize, stPlan, stSQLGen, stRelParse}

// timed runs f as the named stage; the tracer implements it with a
// span, the equivalence test with a plain call.
type timed func(name string, f func())

func untimed(_ string, f func()) { f() }

// compiled is what the compile stages hand to the execute stages: the
// bench-side twin of the store's cached plan.
type compiled struct {
	tr *translator.Result
	rq *rel.Query
}

// compileChain runs the five compile stages on q against snap.
func compileChain(st *db2rdf.Store, snap *store.Snapshot, q string, run timed) (*compiled, error) {
	var (
		parsed *sparql.Query
		exec   *optimizer.ExecNode
		plan   *translator.PlanNode
		err    error
	)
	c := &compiled{}
	backend := translator.NewDB2RDF(snap)
	run(stParse, func() {
		if parsed, err = sparql.Parse(q); err == nil {
			sparql.UnifyEqualityFilters(parsed)
		}
	})
	if err != nil {
		return nil, err
	}
	if len(parsed.Closures) > 0 {
		return nil, fmt.Errorf("stage chain: property-path closures are materialised inside db2rdf and cannot be replayed")
	}
	run(stOptimize, func() { exec, _, err = optimizer.Optimize(parsed, st.Internal().StatsView()) })
	if err != nil {
		return nil, err
	}
	run(stPlan, func() { plan = translator.NewPlanner(backend).BuildPlan(exec) })
	run(stSQLGen, func() { c.tr, err = translator.Translate(parsed, plan, backend) })
	if err != nil {
		return nil, err
	}
	if c.tr.SQL == "" || c.tr.Ask {
		return nil, fmt.Errorf("stage chain: only SELECT over a non-empty pattern is replayed")
	}
	run(stRelParse, func() { c.rq, err = rel.ParseQuery(c.tr.SQL) })
	if err != nil {
		return nil, err
	}
	return c, nil
}

// execChain runs the two execute stages and returns the decoded
// results with the number of dictionary decodes they took.
func execChain(ctx context.Context, st *db2rdf.Store, snap *store.Snapshot, c *compiled, run timed) (*db2rdf.Results, int, error) {
	var (
		rs  *rel.ResultSet
		err error
	)
	run(stExec, func() { rs, err = snap.DB().ExecContext(ctx, c.rq, rel.Limits{}) })
	if err != nil {
		return nil, 0, err
	}
	keep := len(c.tr.Columns) - c.tr.Hidden
	out := &db2rdf.Results{Vars: c.tr.Columns[:keep]}
	decodes := 0
	run(stDecode, func() {
		dict := st.Internal().Dict
		for _, row := range rs.Rows {
			decoded := make([]db2rdf.Binding, keep)
			for i := 0; i < keep; i++ {
				if row[i].IsNull() {
					continue
				}
				t, derr := dict.Decode(row[i].I)
				if derr != nil {
					err = derr
					return
				}
				decoded[i] = db2rdf.Binding{Bound: true, Term: t}
				decodes++
			}
			out.Rows = append(out.Rows, decoded)
		}
	})
	return out, decodes, err
}
