package store

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"

	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// RegisterSPARQLFuncs installs the dictionary-decoding scalar functions
// that generated SQL uses to evaluate SPARQL FILTER expressions and
// ORDER BY keys over dictionary-encoded columns:
//
//	dstr(id)      lexical form (IRI string, literal value, blank label)
//	dnum(id)      numeric value of a literal, NULL if non-numeric
//	dcmp(a, b)    SPARQL-ish ordering: -1/0/1, numeric before string
//	dsort(id)     sort key: numeric value when numeric, else string
//	dlang(id)     language tag ("" when absent)
//	ddt(id)       datatype IRI ("" when absent)
//	debv(id)      effective boolean value, NULL when the term has none
//	disiri(id), disliteral(id), disblank(id)  type tests
//	regexmatch(s, pattern [, flags])          regex over strings
//	langmatches(tag, range)                   RFC 4647 basic filtering
//
// An id argument may instead be a string holding a term key: a query
// constant absent from the dictionary. Functions return NULL on NULL
// input, mirroring SPARQL error propagation.
func (s *Store) RegisterSPARQLFuncs() { RegisterValueFuncs(s.DB, s.Dict) }

// RegisterValueFuncs installs the value functions on an arbitrary
// database/dictionary pair (shared with the baseline stores).
func RegisterValueFuncs(db *rel.DB, d *dict.Dict) {
	decode := func(v rel.Value) (rdf.Term, bool) {
		if v.K == rel.KindString {
			// A constant absent from the dictionary, passed as its
			// term key (see translator.Gen.termExpr).
			t, err := rdf.TermFromKey(v.S)
			return t, err == nil
		}
		if v.K != rel.KindInt || dict.IsLid(v.I) {
			return rdf.Term{}, false
		}
		t, err := d.Decode(v.I)
		return t, err == nil
	}
	db.RegisterFunc("dstr", func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Null, fmt.Errorf("dstr: want 1 arg")
		}
		t, ok := decode(args[0])
		if !ok {
			return rel.Null, nil
		}
		return rel.Str(t.Value), nil
	})
	db.RegisterFunc("dnum", func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Null, fmt.Errorf("dnum: want 1 arg")
		}
		if args[0].K == rel.KindInt && !dict.IsLid(args[0].I) {
			t, err := d.Decode(args[0].I)
			if err != nil {
				return rel.Null, nil
			}
			if f, ok := numeric(t); ok {
				return rel.Float(f), nil
			}
			return rel.Null, nil
		}
		// Already numeric (arithmetic on literals).
		if f, ok := args[0].AsFloat(); ok {
			return rel.Float(f), nil
		}
		return rel.Null, nil
	})
	db.RegisterFunc("dsort", func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Null, fmt.Errorf("dsort: want 1 arg")
		}
		t, ok := decode(args[0])
		if !ok {
			return rel.Null, nil
		}
		if f, ok := numeric(t); ok {
			return rel.Float(f), nil
		}
		return rel.Str(t.Value), nil
	})
	db.RegisterFunc("dcmp", func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Null, fmt.Errorf("dcmp: want 2 args")
		}
		a, aok := decode(args[0])
		b, bok := decode(args[1])
		if !aok || !bok {
			return rel.Null, nil
		}
		return compareTerms(a, b)
	})
	db.RegisterFunc("dlang", func(args []rel.Value) (rel.Value, error) {
		t, ok := decode(args[0])
		if !ok {
			return rel.Null, nil
		}
		return rel.Str(t.Lang), nil
	})
	db.RegisterFunc("ddt", func(args []rel.Value) (rel.Value, error) {
		t, ok := decode(args[0])
		if !ok {
			return rel.Null, nil
		}
		// SPARQL 1.1 §17.4.2.7: a plain literal's datatype is
		// xsd:string; a language-tagged literal's is rdf:langString.
		dt := t.Datatype
		if t.Kind == rdf.Literal && dt == "" {
			if t.Lang != "" {
				dt = rdf.RDFLangString
			} else {
				dt = rdf.XSDString
			}
		}
		return rel.Str(dt), nil
	})
	db.RegisterFunc("debv", func(args []rel.Value) (rel.Value, error) {
		t, ok := decode(args[0])
		if !ok {
			return rel.Null, nil
		}
		return effectiveBool(t), nil
	})
	typeTest := func(k rdf.TermKind) rel.Func {
		return func(args []rel.Value) (rel.Value, error) {
			t, ok := decode(args[0])
			if !ok {
				return rel.Null, nil
			}
			return rel.Bool(t.Kind == k), nil
		}
	}
	db.RegisterFunc("disiri", typeTest(rdf.IRI))
	db.RegisterFunc("disliteral", typeTest(rdf.Literal))
	db.RegisterFunc("disblank", typeTest(rdf.Blank))
	db.RegisterFunc("regexmatch", regexMatchFunc())
	db.RegisterFunc("langmatches", func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Null, fmt.Errorf("langmatches: want 2 args")
		}
		if args[0].K != rel.KindString || args[1].K != rel.KindString {
			return rel.Null, nil
		}
		return rel.Bool(langMatches(args[0].S, args[1].S)), nil
	})
}

// xsdNumeric holds the numeric datatypes of SPARQL 1.1 §17.1: the four
// primitive ones and the integer types derived from xsd:integer.
var xsdNumeric = func() map[string]bool {
	m := map[string]bool{}
	for _, local := range []string{"integer", "decimal", "float", "double",
		"nonPositiveInteger", "negativeInteger", "long", "int", "short", "byte",
		"nonNegativeInteger", "unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte", "positiveInteger"} {
		m["http://www.w3.org/2001/XMLSchema#"+local] = true
	}
	return m
}()

// effectiveBool is a term's effective boolean value (SPARQL 1.1
// §17.2.2): a boolean's value, a string's non-emptiness, a number's
// being neither zero nor NaN, and false for a boolean or number of
// invalid lexical form. Any other term (an IRI, a blank node, a literal
// of another datatype) has none: NULL, an error that a FILTER rejects
// and that NOT leaves an error.
func effectiveBool(t rdf.Term) rel.Value {
	switch {
	case t.Kind != rdf.Literal:
		return rel.Null
	case t.Datatype == "" || t.Datatype == rdf.XSDString:
		return rel.Bool(t.Value != "")
	case t.Datatype == rdf.XSDBoolean:
		return rel.Bool(t.Value == "true" || t.Value == "1")
	case xsdNumeric[t.Datatype]:
		f, ok := t.Float()
		return rel.Bool(ok && f != 0 && !math.IsNaN(f))
	}
	return rel.Null
}

// numeric is a term's numeric value, when it is a literal of one of
// XSD's numeric datatypes with a valid lexical form. A simple literal
// or an xsd:string is never a number, whatever its lexical form
// ("10", "NaN"), so it compares and sorts as a string; the datatype is
// checked first, so such a literal is never parsed.
func numeric(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal || !xsdNumeric[t.Datatype] {
		return 0, false
	}
	return t.Float()
}

// langMatches is RFC 4647 §3.3.1 basic filtering, ignoring case: "*"
// matches every non-empty tag, and any other range matches a tag equal
// to it or beginning with it and a hyphen.
func langMatches(tag, rng string) bool {
	if rng == "*" {
		return tag != ""
	}
	n := len(rng)
	return len(tag) >= n && strings.EqualFold(tag[:n], rng) && (len(tag) == n || tag[n] == '-')
}

// compareTerms orders two terms: numbers (see numeric) numerically,
// then everything else by the code points of its lexical form; mixed
// numeric/non-numeric orders numeric first.
func compareTerms(a, b rdf.Term) (rel.Value, error) {
	af, aNum := numeric(a)
	bf, bNum := numeric(b)
	switch {
	case aNum && bNum:
		switch {
		case af < bf:
			return rel.Int(-1), nil
		case af > bf:
			return rel.Int(1), nil
		}
		return rel.Int(0), nil
	case aNum:
		return rel.Int(-1), nil
	case bNum:
		return rel.Int(1), nil
	}
	switch {
	case a.Value < b.Value:
		return rel.Int(-1), nil
	case a.Value > b.Value:
		return rel.Int(1), nil
	}
	return rel.Int(0), nil
}

// regexCacheCap bounds the compiled patterns a store keeps. Patterns
// come from query text, so a client that sends distinct ones would
// otherwise grow the cache without limit; a full cache is cleared.
const regexCacheCap = 256

// regexCache holds compiled regexmatch patterns.
type regexCache struct {
	mu sync.Mutex
	m  map[string]*regexp.Regexp
}

// regexMatchFunc compiles patterns once and caches them. The flags are
// those of XPath fn:matches: s, m and i as in Go; x, which removes
// whitespace from the pattern outside character classes; and q, which
// matches the pattern as a literal string (x then has no effect). Any
// other flag is an error (NULL, so the FILTER matches nothing).
func regexMatchFunc() rel.Func { return (&regexCache{}).match }

func (c *regexCache) match(args []rel.Value) (rel.Value, error) {
	if len(args) < 2 || len(args) > 3 {
		return rel.Null, fmt.Errorf("regexmatch: want 2 or 3 args")
	}
	if args[0].IsNull() || args[1].IsNull() {
		return rel.Null, nil
	}
	pat, modes, quote, spaced := args[1].S, "", false, false
	if len(args) == 3 && !args[2].IsNull() {
		for _, f := range args[2].S {
			switch f {
			case 's', 'm', 'i':
				modes += string(f)
			case 'q':
				quote = true
			case 'x':
				spaced = true
			default:
				return rel.Null, nil
			}
		}
	}
	switch {
	case quote:
		pat = regexp.QuoteMeta(pat)
	case spaced:
		pat = stripRegexSpace(pat)
	}
	if modes != "" {
		pat = "(?" + modes + ")" + pat
	}
	re, err := c.compile(pat)
	if err != nil {
		return rel.Null, fmt.Errorf("regexmatch: %w", err)
	}
	return rel.Bool(re.MatchString(args[0].S)), nil
}

// compile returns pat compiled, from the cache when it is there.
func (c *regexCache) compile(pat string) (*regexp.Regexp, error) {
	c.mu.Lock()
	re, ok := c.m[pat]
	c.mu.Unlock()
	if ok {
		return re, nil
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= regexCacheCap {
		c.m = make(map[string]*regexp.Regexp, regexCacheCap)
	}
	c.m[pat] = re
	c.mu.Unlock()
	return re, nil
}

// stripRegexSpace removes the whitespace XPath's x flag removes (#x9,
// #xA, #xD and #x20) from pat, except inside character classes, which
// an unescaped [ opens and ] closes (nested for class subtraction).
func stripRegexSpace(pat string) string {
	var b strings.Builder
	depth, escaped := 0, false
	for i := 0; i < len(pat); i++ {
		c := pat[i]
		switch {
		case depth == 0 && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			continue
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		}
		b.WriteByte(c)
	}
	return b.String()
}
