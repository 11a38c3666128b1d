// Package rdf implements the RDF data model: terms (IRIs, literals and
// blank nodes), triples, and readers/writers for the N-Triples syntax
// plus the Turtle subset needed by the workload generators.
//
// The model follows the RDF 1.0 abstract syntax referenced by the paper
// (Bornea et al., SIGMOD 2013, section 1): a dataset is a set of
// (subject, predicate, object) triples where subjects are IRIs or blank
// nodes, predicates are IRIs and objects are IRIs, blank nodes or
// literals.
package rdf

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI is an internationalized resource identifier, e.g.
	// <http://dbpedia.org/resource/IBM>.
	IRI TermKind = iota
	// Literal is a (possibly typed or language-tagged) literal value.
	Literal
	// Blank is a blank node with a document-scoped label.
	Blank
)

// Common XSD datatype IRIs used by the generators and FILTER evaluation.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
	RDFType    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	// RDFLangString is the datatype of language-tagged literals
	// (RDF 1.1); datatype("x"@en) must return it, not xsd:string.
	RDFLangString = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
)

// Term is one RDF term. The zero Term is invalid; construct terms with
// NewIRI, NewLiteral, NewTypedLiteral, NewLangLiteral or NewBlank.
type Term struct {
	// Kind says which of the three RDF term kinds this is.
	Kind TermKind
	// Value is the IRI string, the literal lexical form, or the blank
	// node label (without the "_:" prefix).
	Value string
	// Datatype is the datatype IRI for typed literals ("" otherwise).
	Datatype string
	// Lang is the language tag for language-tagged literals ("" otherwise).
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewInteger returns an xsd:integer literal for n.
func NewInteger(n int64) Term {
	return Term{Kind: Literal, Value: strconv.FormatInt(n, 10), Datatype: XSDInteger}
}

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// Integer returns the literal interpreted as an int64 and whether the
// conversion succeeded.
func (t Term) Integer() (int64, bool) {
	if t.Kind != Literal {
		return 0, false
	}
	n, err := strconv.ParseInt(t.Value, 10, 64)
	return n, err == nil
}

// Float returns the literal interpreted as a float64 and whether the
// conversion succeeded.
func (t Term) Float() (float64, bool) {
	if t.Kind != Literal {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	return f, err == nil
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	default:
		b := make([]byte, 0, len(t.Value)+len(t.Lang)+len(t.Datatype)+6)
		return string(appendLiteral(b, t.Value, t.Lang, t.Datatype))
	}
}

// appendLiteral appends a literal in N-Triples syntax: the lexical form
// quoted with \t \n \r " \ escaped and invalid UTF-8 replaced by
// U+FFFD, then @lang or ^^<datatype>.
func appendLiteral[S ~string | ~[]byte](dst []byte, value, lang, datatype S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(value); {
		c := value[i]
		if c < utf8.RuneSelf {
			var esc byte
			switch c {
			case '"', '\\':
				esc = c
			case '\n':
				esc = 'n'
			case '\r':
				esc = 'r'
			case '\t':
				esc = 't'
			default:
				i++
				continue
			}
			dst = append(append(dst, value[start:i]...), '\\', esc)
			i++
			start = i
			continue
		}
		// Only a ≤4-byte window is converted, so the string stays on
		// the stack for []byte values.
		n := min(len(value)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(value[i : i+n]))
		i += size
		if r == utf8.RuneError && size == 1 {
			dst = append(append(dst, value[start:i-1]...), "\uFFFD"...)
			start = i
		}
	}
	dst = append(append(dst, value[start:]...), '"')
	if len(lang) > 0 {
		dst = append(append(dst, '@'), lang...)
	} else if len(datatype) > 0 {
		dst = append(append(append(dst, "^^<"...), datatype...), '>')
	}
	return dst
}

// Key returns a canonical string key that uniquely identifies the term
// across kinds; it is the encoding stored in the dictionary.
func (t Term) Key() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value
	case Blank:
		return "_" + t.Value
	default:
		switch {
		case t.Lang != "":
			return "@" + t.Lang + "\x00" + t.Value
		case t.Datatype != "":
			return "^" + t.Datatype + "\x00" + t.Value
		default:
			return "\"" + t.Value
		}
	}
}

// TermFromKey is the inverse of Term.Key.
func TermFromKey(key string) (Term, error) {
	kind, value, lang, datatype, ok := splitKey(key, strings.IndexByte)
	if !ok {
		return Term{}, keyError(key)
	}
	return Term{Kind: kind, Value: value, Lang: lang, Datatype: datatype}, nil
}

// KeyView is a term read in place from the bytes of its key: the
// fields alias the key, so a view costs no allocation and is valid only
// while those bytes are.
type KeyView struct {
	Kind                  TermKind
	Value, Lang, Datatype []byte
}

// ParseKey views a key produced by Term.Key; it is TermFromKey over
// bytes.
func ParseKey(key []byte) (KeyView, error) {
	kind, value, lang, datatype, ok := splitKey(key, bytes.IndexByte)
	if !ok {
		return KeyView{}, keyError(string(key))
	}
	return KeyView{Kind: kind, Value: value, Lang: lang, Datatype: datatype}, nil
}

// AppendNTriples appends the term in N-Triples syntax, byte for byte
// what Term.String returns.
func (v KeyView) AppendNTriples(dst []byte) []byte {
	switch v.Kind {
	case IRI:
		return append(append(append(dst, '<'), v.Value...), '>')
	case Blank:
		return append(append(dst, "_:"...), v.Value...)
	default:
		return appendLiteral(dst, v.Value, v.Lang, v.Datatype)
	}
}

// splitKey parses the key format Term.Key writes: one kind byte, then
// the value, with the language tag or datatype IRI and a NUL before the
// value for tagged and typed literals. indexByte is strings.IndexByte
// or bytes.IndexByte. ok is false for a malformed key (keyError says
// why).
func splitKey[S ~string | ~[]byte](key S, indexByte func(S, byte) int) (kind TermKind, value, lang, datatype S, ok bool) {
	if len(key) == 0 {
		return
	}
	value = key[1:]
	switch key[0] {
	case '<':
		return IRI, value, lang, datatype, true
	case '_':
		return Blank, value, lang, datatype, true
	case '"':
		return Literal, value, lang, datatype, true
	case '@':
		lang, value, ok = cutNUL(value, indexByte)
	case '^':
		datatype, value, ok = cutNUL(value, indexByte)
	}
	return Literal, value, lang, datatype, ok
}

// cutNUL splits s around its first NUL byte.
func cutNUL[S ~string | ~[]byte](s S, indexByte func(S, byte) int) (before, after S, found bool) {
	if i := indexByte(s, 0); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return before, after, false
}

// keyError describes why splitKey rejected key.
func keyError(key string) error {
	switch {
	case key == "":
		return fmt.Errorf("rdf: empty term key")
	case key[0] == '@':
		return fmt.Errorf("rdf: malformed lang literal key %q", key)
	case key[0] == '^':
		return fmt.Errorf("rdf: malformed typed literal key %q", key)
	}
	return fmt.Errorf("rdf: malformed term key %q", key)
}

// Triple is one RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple is a convenience constructor.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}
