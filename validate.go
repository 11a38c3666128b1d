package db2rdf

import "db2rdf/internal/sparql"

// Syntax validation without execution. The HTTP endpoint validates
// updates with ValidateUpdate before running them; queries need no
// separate pass, because every query path reports a text that does not
// parse as a *SyntaxError.

// SyntaxError reports a query that is not well-formed SPARQL: the
// client's mistake, where every other query failure is the server's or
// its budgets'. Match with errors.As.
type SyntaxError struct {
	// Err is the parser's error, naming the offending offset.
	Err error
}

func (e *SyntaxError) Error() string { return e.Err.Error() }

// Unwrap returns the parser's error.
func (e *SyntaxError) Unwrap() error { return e.Err }

// parseQuery is sparql.Parse with its failure typed as a *SyntaxError.
func parseQuery(q string) (*sparql.Query, error) {
	parsed, err := sparql.Parse(q)
	if err != nil {
		return nil, &SyntaxError{Err: err}
	}
	return parsed, nil
}

// ValidateQuery parses q as a SPARQL query, returning a *SyntaxError if
// it is malformed.
func ValidateQuery(q string) error {
	_, err := parseQuery(q)
	return err
}

// ValidateUpdate parses u as a SPARQL update request, returning the
// syntax error if it is malformed.
func ValidateUpdate(u string) error {
	_, err := sparql.ParseUpdate(u)
	return err
}

// IsGovernanceError reports whether err is one of the typed query
// lifecycle errors — cancellation, deadline, row/memory budget, or a
// contained panic. The HTTP endpoint maps governance aborts to 503
// (the store is healthy; the request exceeded its resources) and
// contained panics to 500.
func IsGovernanceError(err error) bool { return isGovernanceErr(err) }
