package results_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
)

// oddStrings are the bytes a wire encoder must get exactly right:
// line and paragraph separators, invalid and truncated UTF-8, a
// surrogate half, DEL, HTML-sensitive bytes and a genuine U+FFFD.
var oddStrings = []string{
	"\u2028", "\u2029", "a\u2028b\u2029c",
	"\xff", "a\xc3", "\xed\xa0\x80", "\xe2\x80", "ok\x80end",
	"<tag>&amp;</tag>", "\x7f", "\ufffd", `"\`, "日本\xffé",
}

// wireTerms is the byte-identity corpus: the round-trip suite's hostile
// terms, a literal holding each control byte U+0000–U+001F, and every
// odd string in every field of every term kind.
func wireTerms() []rdf.Term {
	ts := append([]rdf.Term(nil), hostileTerms...)
	for c := 0; c < 0x20; c++ {
		ts = append(ts, rdf.NewLiteral(fmt.Sprintf("c%c-%02x", c, c)))
	}
	for _, s := range oddStrings {
		ts = append(ts,
			rdf.NewLiteral(s),
			rdf.NewIRI("http://example.org/"+s),
			rdf.NewBlank("b"+s),
			rdf.NewLangLiteral(s, "en"),
			rdf.NewLangLiteral("x", "x-"+s),
			rdf.NewTypedLiteral(s, "http://example.org/dt#"+s))
	}
	return ts
}

func bound(t rdf.Term) db2rdf.Binding { return db2rdf.Binding{Bound: true, Term: t} }

// referenceCases are decoded result sets covering every shape the
// encoders distinguish.
func referenceCases() map[string]*db2rdf.Results {
	terms := wireTerms()
	wide := &db2rdf.Results{Vars: []string{"s", "gap", "o"}}
	for i, t := range terms {
		wide.Rows = append(wide.Rows, []db2rdf.Binding{
			bound(rdf.NewIRI(fmt.Sprintf("http://example.org/row%d", i))), {}, bound(t)})
	}
	x, y := rdf.NewIRI("http://example.org/x"), rdf.NewLiteral("y")
	names := []string{"b", "a", "<&>", "é", "\u2028", "\xff", "a b", `q"`}
	named := &db2rdf.Results{Vars: names}
	row := make([]db2rdf.Binding, len(names))
	for i := range row {
		row[i] = bound(terms[i])
	}
	named.Rows = [][]db2rdf.Binding{row}
	return map[string]*db2rdf.Results{
		"hostile":    hostileResults(),
		"wire terms": wide,
		"duplicate vars": {Vars: []string{"x", "y", "x", "y"}, Rows: [][]db2rdf.Binding{
			{bound(x), bound(y), bound(y), bound(x)},
			{bound(x), {}, {}, bound(x)},
			{{}, bound(y), bound(x), {}},
			{{}, {}, {}, {}},
		}},
		"escaped var names": named,
		"short rows": {Vars: []string{"a", "b", "c"}, Rows: [][]db2rdf.Binding{
			{bound(x)}, {}, {bound(x), {}, bound(y)},
		}},
		"zero rows":            {Vars: []string{"x"}},
		"zero vars":            {Rows: [][]db2rdf.Binding{{}, {}}},
		"zero vars, zero rows": {},
		"ask true":             {IsAsk: true, Ask: true},
		"ask false":            {IsAsk: true},
	}
}

// TestEncodersMatchReference holds each encoder, reading decoded
// Results, to the reference writer byte for byte.
func TestEncodersMatchReference(t *testing.T) {
	for name, r := range referenceCases() {
		for _, fm := range formats {
			got, want := encodeBoth(t, fm.f, fm.ref, r)
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %v: %s", name, fm.f, firstDiff(got, want))
			}
		}
	}
}

// TestSolutionsEncodeMatchesReference loads the corpus into a store and
// holds the encoders, reading Solutions straight from dictionary ids,
// to the reference writer over the decoded answer.
func TestSolutionsEncodeMatchesReference(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const ex = "http://example.org/"
	var triples []rdf.Triple
	for i, tm := range wireTerms() {
		row := rdf.NewIRI(fmt.Sprintf(ex+"row%d", i))
		triples = append(triples, rdf.NewTriple(row, rdf.NewIRI(ex+"value"), tm))
		if i%3 == 0 {
			triples = append(triples, rdf.NewTriple(row, rdf.NewIRI(ex+"other"), tm))
		}
	}
	if err := s.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		"select":         `SELECT ?s ?o WHERE { ?s <` + ex + `value> ?o }`,
		"unbound cells":  `SELECT ?o ?s ?x WHERE { ?s <` + ex + `value> ?o OPTIONAL { ?s <` + ex + `other> ?x } }`,
		"duplicate vars": `SELECT ?o ?s ?o WHERE { ?s <` + ex + `other> ?o }`,
		"zero rows":      `SELECT ?s WHERE { ?s <` + ex + `none> ?o }`,
		"zero vars":      `SELECT * WHERE { }`,
		"ask true":       `ASK { ?s <` + ex + `value> ?o }`,
		"ask false":      `ASK { ?s <` + ex + `none> ?o }`,
	}
	for name, q := range queries {
		sol, err := s.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sol.Results()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "duplicate vars" && len(res.Vars) != 3 {
			t.Fatalf("%s: projected %v, want three columns", name, res.Vars)
		}
		for _, fm := range formats {
			var got, want bytes.Buffer
			if err := fm.f.WriteSolutions(&got, sol); err != nil {
				t.Fatalf("%s, %v: %v", name, fm.f, err)
			}
			if err := fm.ref(&want, res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s, %v: %s", name, fm.f, firstDiff(got.Bytes(), want.Bytes()))
			}
		}
	}
}

// FuzzEncodeMatchesReference builds a term from arbitrary bytes and
// holds every encoder to its reference over it, both as given and as
// the dictionary hands it back (through its key); the key's byte view
// must render as the term does.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(uint8(rdf.Literal), "a\"b\\c\n\t\r", "", "", "v")
	f.Add(uint8(rdf.Literal), "\xff\u2028<&>", "en", "", "\xfe")
	f.Add(uint8(rdf.Literal), "42", "", rdf.XSDInteger, "x")
	f.Add(uint8(rdf.IRI), "http://e/x?a=1&b=<2>", "", "", "<&>")
	f.Add(uint8(rdf.Blank), "b,\"0\"", "", "", "")
	f.Fuzz(func(t *testing.T, kind uint8, value, lang, datatype, name string) {
		term := rdf.Term{Kind: rdf.TermKind(kind % 4), Value: value, Lang: lang, Datatype: datatype}
		stored, err := rdf.TermFromKey(term.Key())
		if err != nil {
			t.Fatal(err)
		}
		view, err := rdf.ParseKey([]byte(term.Key()))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(view.AppendNTriples(nil)), refTermString(stored); got != want {
			t.Fatalf("key view renders %q, term %q", got, want)
		}
		for _, tm := range []rdf.Term{term, stored} {
			r := &db2rdf.Results{Vars: []string{name, "v"}, Rows: [][]db2rdf.Binding{
				{bound(tm), bound(tm)}, {{}, bound(tm)},
			}}
			for _, fm := range formats {
				got, want := encodeBoth(t, fm.f, fm.ref, r)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v over %#v: %s", fm.f, tm, firstDiff(got, want))
				}
			}
		}
	})
}

// failingWriter accepts ok writes, then fails every one.
type failingWriter struct{ ok, calls int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.ok {
		return 0, errors.New("client went away")
	}
	return len(p), nil
}

// TestEncoderStopsAtWriteError: once the writer fails — the client
// left — an encoder stops encoding, writes nothing more and returns
// that error.
func TestEncoderStopsAtWriteError(t *testing.T) {
	r := &db2rdf.Results{Vars: []string{"s"}}
	for i := 0; i < 20000; i++ {
		r.Rows = append(r.Rows, []db2rdf.Binding{bound(rdf.NewIRI(fmt.Sprintf("http://example.org/row%d", i)))})
	}
	for _, fm := range formats {
		w := &failingWriter{ok: 1}
		if err := fm.f.Write(w, r); err == nil {
			t.Errorf("%v: write error not returned", fm.f)
		}
		if w.calls != 2 {
			t.Errorf("%v: %d writes, want 2 (one good, one failing, then none)", fm.f, w.calls)
		}
	}
}
