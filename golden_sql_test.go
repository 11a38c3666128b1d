package db2rdf_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
)

// TestLUBMTemplatesSQLUnchanged pins the SQL generated for every LUBM
// template over LUBM(1) to the text the translator produced before the
// lateral flip and the IRI-equality fold went in (hashes taken at
// commit 1cfd8ae). No LUBM template has a variable predicate or a
// FILTER, so neither may touch them — which is why the three LUBM-based
// benchmark workloads are expected not to move. A change that alters
// this SQL on purpose re-records the hashes and says so.
func TestLUBMTemplatesSQLUnchanged(t *testing.T) {
	golden := map[string]string{
		"LQ1":  "b9620cdfc332b6bf816009edb9c97e08d9fbf6088e1562594be6e1ae83bda1c7",
		"LQ2":  "cc15db5547cbbaba19298878dcbe1bb16d12e8508d39317414f65415126f8259",
		"LQ3":  "83f6e3dda5c43e347f3f5177f6eac09dd72ad422f8817f3c33fcb5a37617ef25",
		"LQ4":  "6150daf4dc0196890f34f10478ce5ba7b6b0e6793dd7b937d7ec709687f16479",
		"LQ5":  "95261320c18a2766645c38a96514e9e7e1ec267b55910c0050a34b4bb58db6e1",
		"LQ6":  "08c75a413136017edafc340e6e3e060236ead8a6a72864fcdcaa3d12fb44a7e1",
		"LQ7":  "b62c9f9047beefc9ecb1468af82eea3f48b4efe5c67ec4ca09b503e5c9a5bc83",
		"LQ8":  "6bb269c2f2e6e926c866a0e954c66afa2dd6e4ace7205f53f0ede610388679d0",
		"LQ9":  "8b4e98dc60160a09cd21785596f0e4bade2bf79fe7de30bc8e148a5e852d6665",
		"LQ10": "0c8d02067f07fde01d8f6a7c67119cedb038705cb0fe393680500da5b74efc4c",
		"LQ13": "ce6d6013d6a64a1a5c7fa491a6fe27df0ffdfa3345a3c708ee42f37441a82a28",
		"LQ14": "d0d456b5b7b753eb57d9fb8786507238c03e2f0ea2b721b4726e51db4dab1d66",
	}
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(gen.LUBM(1).Triples); err != nil {
		t.Fatal(err)
	}
	queries := gen.LUBMQueries()
	if len(queries) != len(golden) {
		t.Fatalf("%d LUBM templates, %d recorded", len(queries), len(golden))
	}
	for _, q := range queries {
		e, err := s.Explain(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(e.SQL))); got != golden[q.Name] {
			t.Errorf("%s: the generated SQL changed (sha256 %s, recorded %s):\n%s", q.Name, got, golden[q.Name], e.SQL)
		}
	}
}
