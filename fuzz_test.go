package db2rdf_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"db2rdf"
)

// Fuzz targets for the two untrusted-input surfaces: the N-Triples
// loader and the SPARQL query pipeline. Both assert the library-level
// robustness contract — no input may panic, and after an input is
// rejected the store must still answer queries correctly. ci.sh runs
// each as a short fuzz smoke pass; the checked-in seeds double as
// regression cases under plain `go test`.

const fuzzTriple = "<http://ex/s> <http://ex/p> <http://ex/o> .\n"

func FuzzLoadReader(f *testing.F) {
	f.Add([]byte(fuzzTriple))
	f.Add([]byte("<http://ex/s> <http://ex/p> \"lit\"@en .\n# comment\n"))
	f.Add([]byte("<http://ex/s> <http://ex/p> \"x\"^^<http://ex/dt> .\n"))
	f.Add([]byte("_:b <http://ex/p> \"esc \\u0041 \\n\" .\n"))
	f.Add([]byte("<http://ex/s> <http://ex/p> \"unterminated\n"))
	f.Add([]byte("<http://ex/s> <http://ex/p> \"nul\x00byte\" .\n"))
	f.Add([]byte("<truncated"))
	f.Add([]byte("no triple at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The load may fail but must not panic, and a failed load
		// inserts nothing and interns nothing.
		if _, err := store.LoadReader(bytes.NewReader(data)); err != nil {
			if n := store.Len(); n != 0 {
				t.Fatalf("rejected load stored %d subjects", n)
			}
			if n := store.Internal().Dict.Len(); n != 0 {
				t.Fatalf("rejected load interned %d terms", n)
			}
		}
		// Store-usable-after-error: loading known-good data and
		// querying it must work regardless of what the fuzzed load did.
		if _, err := store.LoadReader(strings.NewReader(fuzzTriple)); err != nil {
			t.Fatalf("store unusable after fuzzed load: %v", err)
		}
		res, err := store.Query(`SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`)
		if err != nil {
			t.Fatalf("query after fuzzed load: %v", err)
		}
		if len(res.Rows) == 0 {
			t.Fatal("known triple not found after fuzzed load")
		}
	})
}

func FuzzParseUpdate(f *testing.F) {
	store, err := db2rdf.Open(db2rdf.Options{
		QueryTimeout:  2 * time.Second,
		MaxResultRows: 1 << 20,
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := store.LoadReader(strings.NewReader(fuzzTriple)); err != nil {
		f.Fatal(err)
	}
	f.Add(`INSERT DATA { <http://ex/a> <http://ex/b> "c" }`)
	f.Add(`DELETE DATA { <http://ex/a> <http://ex/b> "c" . <http://ex/x> <http://ex/y> <http://ex/z> }`)
	f.Add(`DELETE { ?s ?p ?o } INSERT { ?s <http://ex/q> ?o } WHERE { ?s ?p ?o FILTER(?s != ?o) }`)
	f.Add(`DELETE WHERE { ?s <http://ex/gone> ?o }`)
	f.Add(`PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:p ex:o } ; CLEAR DEFAULT ; INSERT DATA { ex:s ex:p ex:o }`)
	f.Add(`INSERT { _:b <http://ex/p> ?o } WHERE { ?s ?p ?o }`)
	f.Add(`CLEAR NAMED`)
	f.Add(`INSERT DATA { ?var <p> "not ground" }`)
	f.Add(`DELETE DATA { <a> <b>`)
	f.Add("INSERT \x00 DATA")
	f.Fuzz(func(t *testing.T, u string) {
		_, _ = store.Update(u) // may fail; must not panic
		// Store-usable-after-error: whatever the fuzzed update did (it
		// may legitimately have deleted or cleared data), a fresh insert
		// and a query must still work.
		if _, err := store.Update(`INSERT DATA { <http://ex/s> <http://ex/p> <http://ex/o> }`); err != nil {
			t.Fatalf("store unusable after fuzzed update %q: %v", u, err)
		}
		res, err := store.Query(`SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`)
		if err != nil {
			t.Fatalf("query after fuzzed update %q: %v", u, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("known triple missing after fuzzed update %q", u)
		}
	})
}

func FuzzParseQuery(f *testing.F) {
	store, err := db2rdf.Open(db2rdf.Options{
		// Bound every fuzzed query so a pathological-but-valid input
		// cannot stall the fuzzer: governance is part of the surface
		// under test.
		QueryTimeout:  2 * time.Second,
		MaxResultRows: 1 << 20,
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := store.LoadReader(strings.NewReader(
		fuzzTriple + "<http://ex/s> <http://ex/q> \"v\" .\n<http://ex/o> <http://ex/p> <http://ex/s> .\n")); err != nil {
		f.Fatal(err)
	}
	f.Add(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	f.Add(`SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(?s != ?o) } ORDER BY ?s LIMIT 5`)
	f.Add(`ASK { <http://ex/s> ?p ?o }`)
	f.Add(`SELECT ?s WHERE { ?s <http://ex/p>+ ?o }`)
	f.Add(`SELECT * WHERE { { ?s ?p ?o } UNION { ?o ?p ?s } }`)
	f.Add(`SELECT (?x AS`)
	f.Add("SELECT \x00 WHERE")
	f.Fuzz(func(t *testing.T, q string) {
		_, _ = store.Query(q) // may fail; must not panic
		// Store-usable-after-error: a well-formed query still works.
		res, err := store.Query(`SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`)
		if err != nil {
			t.Fatalf("store unusable after fuzzed query %q: %v", q, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("store corrupted after fuzzed query %q: got %d rows", q, len(res.Rows))
		}
	})
}
