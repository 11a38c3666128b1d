package rdf

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	cases := []struct {
		term      Term
		isIRI     bool
		isLiteral bool
		isBlank   bool
		rendered  string
	}{
		{NewIRI("http://a/b"), true, false, false, "<http://a/b>"},
		{NewLiteral("hi"), false, true, false, `"hi"`},
		{NewLangLiteral("hi", "en"), false, true, false, `"hi"@en`},
		{NewTypedLiteral("5", XSDInteger), false, true, false, `"5"^^<` + XSDInteger + `>`},
		{NewBlank("b0"), false, false, true, "_:b0"},
		{NewInteger(-7), false, true, false, `"-7"^^<` + XSDInteger + `>`},
	}
	for _, c := range cases {
		if c.term.IsIRI() != c.isIRI || c.term.IsLiteral() != c.isLiteral || c.term.IsBlank() != c.isBlank {
			t.Errorf("%v: kind predicates wrong", c.term)
		}
		if got := c.term.String(); got != c.rendered {
			t.Errorf("String() = %q, want %q", got, c.rendered)
		}
	}
}

func TestLiteralEscaping(t *testing.T) {
	term := NewLiteral("line1\nline2\t\"quoted\" back\\slash")
	s := term.String()
	want := `"line1\nline2\t\"quoted\" back\\slash"`
	if s != want {
		t.Fatalf("escaped = %q, want %q", s, want)
	}
	// Round-trip through the parser.
	tr, err := ParseTripleLine("<s> <p> " + s + " .")
	if err != nil {
		t.Fatal(err)
	}
	if tr.O.Value != term.Value {
		t.Fatalf("round trip: %q != %q", tr.O.Value, term.Value)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	terms := []Term{
		NewIRI("http://x"),
		NewLiteral("plain"),
		NewLangLiteral("bonjour", "fr"),
		NewTypedLiteral("3.14", XSDDecimal),
		NewBlank("n1"),
		NewLiteral(""), // empty literal
	}
	for _, term := range terms {
		back, err := TermFromKey(term.Key())
		if err != nil {
			t.Fatalf("%v: %v", term, err)
		}
		if back != term {
			t.Fatalf("round trip: %#v != %#v", back, term)
		}
	}
	if _, err := TermFromKey(""); err == nil {
		t.Fatal("empty key must error")
	}
	if _, err := TermFromKey("@en-missing-separator"); err == nil {
		t.Fatal("malformed lang key must error")
	}
}

func TestKeyDistinguishesKinds(t *testing.T) {
	// The same lexical value as IRI, literal and blank must have
	// different keys.
	keys := map[string]bool{}
	for _, term := range []Term{NewIRI("x"), NewLiteral("x"), NewBlank("x"), NewLangLiteral("x", "en"), NewTypedLiteral("x", "dt")} {
		k := term.Key()
		if keys[k] {
			t.Fatalf("duplicate key %q", k)
		}
		keys[k] = true
	}
}

func TestKeyRoundTripProperty(t *testing.T) {
	f := func(val, lang string) bool {
		lang = strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r
			}
			return -1
		}, lang)
		var term Term
		if lang != "" {
			term = NewLangLiteral(val, lang)
		} else {
			term = NewLiteral(val)
		}
		back, err := TermFromKey(term.Key())
		return err == nil && back == term
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntegerFloat(t *testing.T) {
	n, ok := NewInteger(42).Integer()
	if !ok || n != 42 {
		t.Fatalf("Integer() = %d, %v", n, ok)
	}
	f, ok := NewTypedLiteral("2.5", XSDDecimal).Float()
	if !ok || f != 2.5 {
		t.Fatalf("Float() = %f, %v", f, ok)
	}
	if _, ok := NewIRI("x").Integer(); ok {
		t.Fatal("IRI must not convert to integer")
	}
	if _, ok := NewLiteral("abc").Float(); ok {
		t.Fatal("non-numeric literal must not convert")
	}
}

func TestParseTripleLineForms(t *testing.T) {
	cases := []struct {
		line  string
		s, p  string
		oKind TermKind
	}{
		{`<http://a> <http://p> <http://b> .`, "http://a", "http://p", IRI},
		{`_:x <http://p> "lit" .`, "x", "http://p", Literal},
		{`<http://a> <http://p> "v"@en .`, "http://a", "http://p", Literal},
		{`<http://a> <http://p> "1"^^<` + XSDInteger + `> .`, "http://a", "http://p", Literal},
		{`<http://a> <http://p> _:y .`, "http://a", "http://p", Blank},
	}
	for _, c := range cases {
		tr, err := ParseTripleLine(c.line)
		if err != nil {
			t.Fatalf("%q: %v", c.line, err)
		}
		if tr.S.Value != c.s || tr.P.Value != c.p || tr.O.Kind != c.oKind {
			t.Errorf("%q parsed to %v", c.line, tr)
		}
	}
}

func TestParseTripleLineErrors(t *testing.T) {
	bad := []string{
		``,
		`<s> <p> .`,
		`<s> <p> <o>`,     // missing dot
		`"lit" <p> <o> .`, // literal subject
		`<s> "lit" <o> .`, // literal predicate
		`<s> _:b <o> .`,   // blank predicate
		`<s> <p> "unterminated .`,
		`<s <p> <o> .`,       // unterminated IRI
		`<s> <p> "v"^^bad .`, // malformed datatype
	}
	for _, line := range bad {
		if _, err := ParseTripleLine(line); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
}

func TestUnicodeEscapes(t *testing.T) {
	tr, err := ParseTripleLine(`<s> <p> "café \U0001F600" .`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.O.Value != "café 😀" {
		t.Fatalf("unicode unescape = %q", tr.O.Value)
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	input := `# header comment

<a> <p> <b> .
   # indented comment
<a> <q> "v" .
`
	r := NewReader(strings.NewReader(input))
	ts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("want 2 triples, got %d", len(ts))
	}
}

func TestReaderErrorsCarryLineNumbers(t *testing.T) {
	r := NewReader(strings.NewReader("<a> <p> <b> .\ngarbage\n"))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	triples := []Triple{
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLangLiteral("x\ny", "de")),
		NewTriple(NewBlank("b"), NewIRI("http://p"), NewTypedLiteral("9", XSDInteger)),
	}
	var sb strings.Builder
	w := NewWriter(&sb)
	for _, tr := range triples {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(triples) {
		t.Fatalf("round trip count %d != %d", len(back), len(triples))
	}
	for i := range back {
		if back[i] != triples[i] {
			t.Errorf("triple %d: %v != %v", i, back[i], triples[i])
		}
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("s"), NewIRI("p"), NewLiteral("o"))
	if tr.String() != `<s> <p> "o" .` {
		t.Fatalf("got %q", tr.String())
	}
}

// TestParseKeyMatchesTermFromKey holds the byte view of a key to the
// term TermFromKey builds from it, and its N-Triples rendering to
// Term.String, including invalid UTF-8 and the escaped characters.
func TestParseKeyMatchesTermFromKey(t *testing.T) {
	for _, term := range []Term{
		NewIRI("http://x/a b"),
		NewBlank("n\xff1"),
		NewLiteral(""),
		NewLiteral("tab\tnl\nquote\"back\\cr\r\xff\xc3 \u2028é"),
		NewLangLiteral("bonjour\n", "fr"),
		NewTypedLiteral("3.14", XSDDecimal),
	} {
		key := term.Key()
		v, err := ParseKey([]byte(key))
		if err != nil {
			t.Fatalf("%q: %v", key, err)
		}
		back, _ := TermFromKey(key)
		if v.Kind != back.Kind || string(v.Value) != back.Value || string(v.Lang) != back.Lang || string(v.Datatype) != back.Datatype {
			t.Errorf("ParseKey(%q) = %+v, TermFromKey = %#v", key, v, back)
		}
		if got, want := string(v.AppendNTriples([]byte("x"))), "x"+term.String(); got != want {
			t.Errorf("AppendNTriples = %q, want %q", got, want)
		}
	}
	for _, key := range []string{"", "@en-missing-separator", "^dt", "?x"} {
		if _, err := ParseKey([]byte(key)); err == nil {
			t.Errorf("ParseKey(%q) must error", key)
		}
	}
	if got, want := NewLiteral("a\xffb").String(), "\"a\uFFFDb\""; got != want {
		t.Errorf("invalid UTF-8 renders %q, want %q", got, want)
	}
}
