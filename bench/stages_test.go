package main

import (
	"context"
	"reflect"
	"testing"

	"db2rdf"
)

// TestStageChainMatchesQuery holds the outside-in replay (stages.go)
// to the real pipeline: for every template of every workload, the
// chain sparql.Parse -> UnifyEqualityFilters -> optimizer.Optimize ->
// translator BuildPlan/Translate -> rel.ParseQuery -> ExecContext ->
// Dict.Decode must return exactly the rows Store.Query returns. The
// per-layer numbers measure the real pipeline only as long as this
// passes; a refactor that changes the chain fails here first.
func TestStageChainMatchesQuery(t *testing.T) {
	ctx := context.Background()
	for _, workload := range workloadNames {
		ds := generate(workload, 0.05)
		p, err := buildPlan(workload, ds, 1, 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		st, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.LoadTriples(ds.triples); err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for i := range p.texts {
			q := &p.texts[i]
			if workload == wlCold && seen[q.tmpl] {
				continue // one constant per template is enough here
			}
			seen[q.tmpl] = true
			want, err := st.Query(q.text)
			if err != nil {
				t.Fatalf("%s %s: %v", workload, templateNames[q.tmpl], err)
			}
			snap := st.Internal().Snapshot()
			c, err := compileChain(st, snap, q.text, untimed)
			if err != nil {
				t.Fatalf("%s %s: compile chain: %v", workload, templateNames[q.tmpl], err)
			}
			got, decodes, err := execChain(ctx, st, snap, c, untimed)
			if err != nil {
				t.Fatalf("%s %s: exec chain: %v", workload, templateNames[q.tmpl], err)
			}
			if !reflect.DeepEqual(got.Vars, want.Vars) {
				t.Errorf("%s %s: vars %v, Store.Query has %v", workload, templateNames[q.tmpl], got.Vars, want.Vars)
			}
			if len(got.Rows) != len(want.Rows) || hashResults(got) != hashResults(want) {
				t.Errorf("%s %s: chain returned %d rows, Store.Query %d, or different ones", workload, templateNames[q.tmpl], len(got.Rows), len(want.Rows))
			}
			bound := 0
			for _, row := range want.Rows {
				for _, b := range row {
					if b.Bound {
						bound++
					}
				}
			}
			if decodes != bound {
				t.Errorf("%s %s: chain decoded %d terms, the result binds %d", workload, templateNames[q.tmpl], decodes, bound)
			}
		}
		if len(seen) == 0 {
			t.Errorf("%s: no templates", workload)
		}
	}
}
