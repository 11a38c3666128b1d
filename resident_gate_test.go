package db2rdf_test

// TestResidentBytesGate is the ci.sh storage regression gate for the
// compressed chunk representation: once chunks seal into FoR bit-packed
// form at publish, LUBM table_resident_bytes must stay at or below
// 0.35x the relations' logical size (Σ EstimateBytes over DPH, DS, RPH
// and RS: 8 bytes per value plus one bit per NULL), and the front-coded
// dictionary must keep dict_resident_bytes at or below 0.7x the raw
// []rdf.Term layout. Ratios, not absolute bytes, so the gate is
// machine-independent. Unsealed chunks read about 1.1x the logical
// size, so a store that stopped sealing fails the table half by 3x.
//
// Gated behind DB2RDF_PERF_GATE=1 (set by ci.sh) so plain `go test`
// stays fast.

import (
	"os"
	"testing"

	"db2rdf"
)

const (
	tableBytesMaxRatio = 0.35
	dictBytesMaxRatio  = 0.7
)

func TestResidentBytesGate(t *testing.T) {
	if os.Getenv("DB2RDF_PERF_GATE") == "" {
		t.Skip("set DB2RDF_PERF_GATE=1 to run the resident-bytes regression gate")
	}
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(lubmData().Triples); err != nil {
		t.Fatal(err)
	}
	snap := s.Internal().Snapshot()
	var logical int64
	for _, name := range []string{"DPH", "DS", "RPH", "RS"} {
		logical += snap.DB().Table(name).EstimateBytes()
	}
	table := s.TableBytes()
	dictEnc := s.DictBytes()
	dictRaw := s.Internal().Dict.RawBytes()
	t.Logf("table_resident_bytes: encoded=%d logical=%d (%.3fx, limit %.2fx)",
		table, logical, float64(table)/float64(logical), tableBytesMaxRatio)
	t.Logf("dict_resident_bytes: front-coded=%d raw-terms=%d (%.3fx, limit %.2fx)",
		dictEnc, dictRaw, float64(dictEnc)/float64(dictRaw), dictBytesMaxRatio)
	if float64(table) > float64(logical)*tableBytesMaxRatio {
		t.Errorf("encoded table bytes %d exceed %.2fx the logical size %d",
			table, tableBytesMaxRatio, logical)
	}
	if float64(dictEnc) > float64(dictRaw)*dictBytesMaxRatio {
		t.Errorf("front-coded dict bytes %d exceed %.2fx raw terms %d",
			dictEnc, dictBytesMaxRatio, dictRaw)
	}
}
