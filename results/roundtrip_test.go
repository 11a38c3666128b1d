package results_test

// Wire-boundary round-trip audit (ISSUE 10 satellite): terms leaving
// the store must survive encode→decode through each serialization —
// losslessly for JSON and TSV, lexically for CSV — including
// language-tagged and datatyped literals, blank nodes, and literals
// holding control characters, quotes, backslashes, field separators
// and multi-byte runes.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/results"
)

// hostileTerms is the adversarial corpus: every term kind crossed with
// the characters each serialization must escape.
var hostileTerms = []rdf.Term{
	rdf.NewIRI("http://example.org/simple"),
	rdf.NewIRI("http://example.org/path?q=1&r=2#frag"),
	rdf.NewBlank("b0"),
	rdf.NewBlank("gen-1.2"),
	rdf.NewLiteral("plain"),
	rdf.NewLiteral(""),
	rdf.NewLiteral(`with "quotes" inside`),
	rdf.NewLiteral(`back\slash`),
	rdf.NewLiteral("tab\there"),
	rdf.NewLiteral("new\nline"),
	rdf.NewLiteral("carriage\rreturn"),
	rdf.NewLiteral("comma,separated,values"),
	rdf.NewLiteral("\tleading and trailing\n"),
	rdf.NewLiteral("unicode: ☃ résumé 日本語"),
	rdf.NewLangLiteral("bonjour", "fr"),
	rdf.NewLangLiteral("g'day\nmate", "en-AU"),
	rdf.NewTypedLiteral("42", rdf.XSDInteger),
	rdf.NewTypedLiteral("2024-01-02", rdf.XSDDate),
	rdf.NewTypedLiteral("esc\"aped\\lex", "http://example.org/dt"),
	rdf.NewLiteral("looks://like/an/iri"),
	rdf.NewLiteral("_:not-a-bnode"),
}

// hostileResults builds a Results set with one row per hostile term
// plus an unbound middle column, exercising sparse bindings.
func hostileResults() *db2rdf.Results {
	r := &db2rdf.Results{Vars: []string{"s", "gap", "o"}}
	for i, t := range hostileTerms {
		r.Rows = append(r.Rows, []db2rdf.Binding{
			{Bound: true, Term: rdf.NewIRI(fmt.Sprintf("http://example.org/row%d", i))},
			{}, // never bound
			{Bound: true, Term: t},
		})
	}
	return r
}

func TestJSONRoundTripLossless(t *testing.T) {
	want := hostileResults()
	var buf bytes.Buffer
	if err := results.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := results.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestTSVRoundTripLossless(t *testing.T) {
	want := hostileResults()
	var buf bytes.Buffer
	if err := results.WriteTSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	// The encoded stream must stay one line per row: every control
	// character in a literal is escaped, never emitted raw.
	if got, wantLines := strings.Count(buf.String(), "\n"), len(want.Rows)+1; got != wantLines {
		t.Fatalf("TSV emitted %d lines, want %d (unescaped newline in a field?)", got, wantLines)
	}
	got, err := results.ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TSV round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestCSVRoundTripLexical(t *testing.T) {
	want := hostileResults()
	var buf bytes.Buffer
	if err := results.WriteCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	// RFC 4180: records end with CRLF; quoted fields may hold raw
	// CR/LF/comma, so only count CRLF outside quotes via the decoder.
	if !strings.Contains(buf.String(), "\r\n") {
		t.Fatal("CSV output does not use CRLF record separators")
	}
	got, err := results.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Vars, want.Vars) {
		t.Fatalf("CSV header diverged: want %v, got %v", want.Vars, got.Vars)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("CSV row count diverged: want %d, got %d", len(want.Rows), len(got.Rows))
	}
	for i, wr := range want.Rows {
		gr := got.Rows[i]
		for c := range wr {
			// The empty literal decodes as unbound — inherent CSV loss.
			if wr[c].Bound && wr[c].Term.Value == "" && wr[c].Term.Kind == rdf.Literal {
				continue
			}
			if wr[c].Bound != gr[c].Bound {
				t.Errorf("row %d col %d: bound %v -> %v", i, c, wr[c].Bound, gr[c].Bound)
				continue
			}
			if !wr[c].Bound {
				continue
			}
			wantLex, gotLex := wr[c].Term.Value, gr[c].Term.Value
			if wr[c].Term.Kind == rdf.Blank {
				wantLex = "_:" + wantLex
			}
			if gr[c].Term.Kind == rdf.Blank {
				gotLex = "_:" + gotLex
			}
			if wantLex != gotLex {
				t.Errorf("row %d col %d: lexical %q -> %q", i, c, wantLex, gotLex)
			}
		}
	}
	// Kind heuristics: IRIs and blank nodes in the corpus decode back
	// to their kinds (they all have unambiguous shapes).
	for i, tm := range hostileTerms {
		g := got.Rows[i][2]
		if tm.Kind == rdf.IRI && g.Term.Kind != rdf.IRI {
			t.Errorf("row %d: IRI %q decoded as kind %d", i, tm.Value, g.Term.Kind)
		}
		if tm.Kind == rdf.Blank && g.Term.Kind != rdf.Blank {
			t.Errorf("row %d: blank %q decoded as kind %d", i, tm.Value, g.Term.Kind)
		}
	}
}

func TestAskRoundTrips(t *testing.T) {
	for _, ask := range []bool{true, false} {
		want := &db2rdf.Results{IsAsk: true, Ask: ask}
		for _, f := range []results.Format{results.JSON, results.CSV, results.TSV} {
			var buf bytes.Buffer
			if err := f.Write(&buf, want); err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			var got *db2rdf.Results
			var err error
			switch f {
			case results.JSON:
				got, err = results.ReadJSON(&buf)
			case results.CSV:
				got, err = results.ReadCSV(&buf)
			default:
				got, err = results.ReadTSV(&buf)
			}
			if err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			if !got.IsAsk || got.Ask != ask {
				t.Errorf("%v: ASK %v decoded as IsAsk=%v Ask=%v", f, ask, got.IsAsk, got.Ask)
			}
		}
	}
}

// TestStoreToWireRoundTrip drives hostile terms through the full
// pipeline: store load → SPARQL query → encode → decode, asserting the
// lossless formats reproduce exactly what the store returned.
func TestStoreToWireRoundTrip(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var triples []rdf.Triple
	for i, tm := range hostileTerms {
		triples = append(triples, rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://example.org/row%d", i)),
			rdf.NewIRI("http://example.org/value"),
			tm))
	}
	if err := s.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	want, err := s.Query(`SELECT ?s ?o WHERE { ?s <http://example.org/value> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != len(hostileTerms) {
		t.Fatalf("query returned %d rows, want %d", len(want.Rows), len(hostileTerms))
	}
	for name, codec := range map[string]struct {
		enc func(*bytes.Buffer) error
		dec func(*bytes.Buffer) (*db2rdf.Results, error)
	}{
		"json": {
			func(b *bytes.Buffer) error { return results.WriteJSON(b, want) },
			func(b *bytes.Buffer) (*db2rdf.Results, error) { return results.ReadJSON(b) },
		},
		"tsv": {
			func(b *bytes.Buffer) error { return results.WriteTSV(b, want) },
			func(b *bytes.Buffer) (*db2rdf.Results, error) { return results.ReadTSV(b) },
		},
	} {
		var buf bytes.Buffer
		if err := codec.enc(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := codec.dec(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: store→wire round trip diverged:\nwant %+v\ngot  %+v", name, want, got)
		}
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   results.Format
		ok     bool
	}{
		{"", results.JSON, true},
		{"*/*", results.JSON, true},
		{"application/sparql-results+json", results.JSON, true},
		{"application/json", results.JSON, true},
		{"text/csv", results.CSV, true},
		{"text/tab-separated-values", results.TSV, true},
		{"text/csv;q=0.5, application/sparql-results+json", results.JSON, true},
		{"text/csv;q=0.9, application/sparql-results+json;q=0.1", results.CSV, true},
		{"text/*", results.TSV, true}, // lossless TSV before lossy CSV
		{"text/html", results.JSON, false},
		{"application/xml;q=0.9", results.JSON, false},
		{"text/html;q=0.9, */*;q=0.1", results.JSON, true},
		{"text/csv;q=0", results.JSON, false},
	}
	for _, c := range cases {
		// The pick must not depend on anything but the header: ask
		// repeatedly.
		for i := 0; i < 100; i++ {
			got, ok := results.Negotiate(c.accept)
			if ok != c.ok {
				t.Fatalf("Negotiate(%q) ok = %v, want %v (call %d)", c.accept, ok, c.ok, i)
			}
			if ok && got != c.want {
				t.Fatalf("Negotiate(%q) = %v, want %v (call %d)", c.accept, got, c.want, i)
			}
		}
	}
}
