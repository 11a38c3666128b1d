package db2rdf

// Test-only exports for the external db2rdf_test package.

import (
	"context"

	"db2rdf/internal/rel"
	"db2rdf/internal/store"
	"db2rdf/internal/translator"
)

// PromEscapeLabelForTest exposes the Prometheus label-value escaper so
// the exposition conformance test can round-trip hostile values
// through its strict parser.
func PromEscapeLabelForTest(v string) string { return promEscapeLabel(v) }

// QueryOnForTest runs q through the plan cache against a held
// snapshot, as a reader that loaded snap before later writes published
// would.
func (s *Store) QueryOnForTest(snap *store.Snapshot, q string) (*Results, error) {
	return s.queryOn(context.Background(), snap, q)
}

// SetCompileHookForTest makes f see every plan a store compiles: its
// translation, and a function that executes a relational query on the
// database the plan runs on, closure relations included. The returned
// function removes the hook.
func SetCompileHookForTest(f func(tr *translator.Result, exec func(*rel.Query) (*rel.ResultSet, error))) (remove func()) {
	testHookCompiled = func(s *Store, snap *store.Snapshot, cp *compiledPlan) {
		f(cp.tr, func(q *rel.Query) (*rel.ResultSet, error) {
			db, err := s.closureDB(context.Background(), snap, cp)
			if err != nil {
				return nil, err
			}
			return db.Exec(q)
		})
	}
	return func() { testHookCompiled = nil }
}

// CompileForTest compiles q against the published snapshot as a
// plan-cache miss does, without executing it or caching the plan.
func (s *Store) CompileForTest(q string) error {
	parsed, err := parseQuery(q)
	if err != nil {
		return err
	}
	_, err = s.compile(s.inner.Snapshot(), parsed)
	return err
}

// DecodePerCellForTest is the reference Results is checked against:
// every bound cell decoded on its own through the live dictionary's
// Decode, one binding slice per row.
func (s *Store) DecodePerCellForTest(sol *Solutions) (*Results, error) {
	out := &Results{Vars: sol.Vars, Ask: sol.Ask, IsAsk: sol.IsAsk}
	keep := len(sol.Vars)
	for _, row := range sol.rows {
		decoded := make([]Binding, keep)
		for i, v := range row[:keep] {
			if v.IsNull() {
				continue
			}
			t, err := s.inner.Dict.Decode(v.I)
			if err != nil {
				return nil, err
			}
			decoded[i] = Binding{Bound: true, Term: t}
		}
		out.Rows = append(out.Rows, decoded)
	}
	return out, nil
}
