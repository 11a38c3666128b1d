package db2rdf

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestSolveContextMatchesQuery: the undecoded answer decodes to exactly
// what Query returns, for SELECTs with unbound cells, ASK and the empty
// pattern, and is counted as one served query.
func TestSolveContextMatchesQuery(t *testing.T) {
	s := fig1(t, Options{K: 4})
	for _, q := range []string{
		`SELECT ?x ?y WHERE { ?x <founder> ?y }`,
		`SELECT ?x ?h WHERE { ?x <born> ?b OPTIONAL { ?x <home> ?h } }`,
		`SELECT ?x WHERE { ?x <born> "1850" . ?x <nope> ?z }`,
		`ASK { ?x <founder> <IBM> }`,
		`ASK { ?x <founder> <Nope> }`,
		`SELECT * WHERE { }`,
	} {
		want, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		before := s.Metrics().Snapshot()
		sol, err := s.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		after := s.Metrics().Snapshot()
		if sol.Len() != len(want.Rows) {
			t.Errorf("%s: %d solutions, %d rows", q, sol.Len(), len(want.Rows))
		}
		if after.QueriesServed != before.QueriesServed+1 || after.RowsEmitted != before.RowsEmitted+uint64(sol.Len()) {
			t.Errorf("%s: served %d→%d, rows %d→%d", q, before.QueriesServed, after.QueriesServed, before.RowsEmitted, after.RowsEmitted)
		}
		got, err := sol.Results()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Solutions.Results() = %+v, Query = %+v", q, got, want)
		}
	}
}

// TestSyntaxErrorIsTyped: every query entry point reports a text that
// does not parse as a *SyntaxError, with the parser's message, and
// nothing else as one.
func TestSyntaxErrorIsTyped(t *testing.T) {
	s := fig1(t, Options{K: 4, MaxResultRows: 1})
	const bad = "SELECT WHERE {"
	_, parseErr := s.Query(bad)
	checks := map[string]error{"Query": parseErr, "ValidateQuery": ValidateQuery(bad)}
	_, checks["SolveContext"] = s.SolveContext(context.Background(), bad)
	_, checks["Explain"] = s.Explain(bad)
	_, checks["Analyze"] = s.Analyze(bad)
	_, checks["QueryGraph"] = s.QueryGraph(bad)
	for name, err := range checks {
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s: %v (%T) is not a *SyntaxError", name, err, err)
		} else if se.Error() != parseErr.Error() {
			t.Errorf("%s: message %q, want %q", name, se.Error(), parseErr.Error())
		}
	}
	// A well-formed query that trips its budget is not the client's
	// syntax.
	_, err := s.SolveContext(context.Background(), `SELECT ?x ?y WHERE { ?x <founder> ?y }`)
	var se *SyntaxError
	if err == nil || errors.As(err, &se) || !IsGovernanceError(err) {
		t.Errorf("budget trip: %v", err)
	}
}
