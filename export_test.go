package db2rdf

// Test-only exports for the external db2rdf_test package.

import (
	"context"

	"db2rdf/internal/store"
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
