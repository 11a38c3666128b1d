package results

// SPARQL 1.1 Query Results JSON Format (W3C REC sparql11-results-json):
// {"head":{"vars":[...]},"results":{"bindings":[{var:{"type":...}}]}}
// for SELECT, {"head":{},"boolean":b} for ASK. Unbound variables are
// simply absent from a binding object. The encoder is hand-written; the
// decoder reads the document into the structs below with encoding/json
// and also accepts the legacy "typed-literal" type emitted by pre-1.1
// endpoints.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"unicode/utf8"

	"db2rdf"
	"db2rdf/internal/rdf"
)

type jsonResults struct {
	Head    jsonHead   `json:"head"`
	Results *jsonSolns `json:"results,omitempty"`
	Boolean *bool      `json:"boolean,omitempty"`
}

type jsonHead struct {
	Vars []string `json:"vars,omitempty"`
}

type jsonSolns struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

// WriteJSON encodes r in the SPARQL 1.1 Query Results JSON Format.
func WriteJSON(w io.Writer, r *db2rdf.Results) error {
	return writeJSON(w, &resultsSource{res: r})
}

// writeJSON is the one JSON encoder. Its output is byte for byte what
// encoding/json made of the jsonResults document above: binding keys
// sorted, strings escaped as appendJSONString says, a final newline.
func writeJSON(w io.Writer, src source) error {
	e := newEncoder(w)
	if isAsk, answer := src.ask(); isAsk {
		e.buf = append(e.buf, `{"head":{},"boolean":`...)
		e.buf = strconv.AppendBool(e.buf, answer)
		e.buf = append(e.buf, "}\n"...)
		return e.close()
	}
	vars := src.vars()
	e.buf = append(e.buf, `{"head":{`...)
	if len(vars) > 0 {
		e.buf = append(e.buf, `"vars":[`...)
		for i, v := range vars {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = appendJSONString(e.buf, v)
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, `},"results":{"bindings":[`...)
	keys := bindingKeys(vars)
	for r, n := 0, src.rows(); r < n; r++ {
		if r > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, '{')
		first := true
		for _, k := range keys {
			for _, c := range k.cols {
				v, ok := src.cell(r, c)
				if !ok {
					continue
				}
				if !first {
					e.buf = append(e.buf, ',')
				}
				first = false
				e.buf = append(e.buf, k.name...)
				e.buf = appendJSONTerm(e.buf, v)
				break
			}
		}
		e.buf = append(e.buf, '}')
		if !e.endRow() {
			break
		}
	}
	e.buf = append(e.buf, "]}}\n"...)
	return e.close()
}

// bindingKey is one distinct variable name of a binding object: its
// encoded `"name":` prefix and the columns carrying it, last first,
// because the first bound one wins (a repeated name keeps the last
// bound cell, as assigning into a map in column order did).
type bindingKey struct {
	name []byte
	cols []int
}

// bindingKeys orders the distinct variable names as encoding/json
// orders map keys: by their bytes.
func bindingKeys(vars []string) []bindingKey {
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return vars[order[i]] < vars[order[j]] })
	var keys []bindingKey
	for _, c := range order {
		if n := len(keys); n > 0 && vars[keys[n-1].cols[0]] == vars[c] {
			keys[n-1].cols = append([]int{c}, keys[n-1].cols...)
			continue
		}
		name := append(appendJSONString(nil, vars[c]), ':')
		keys = append(keys, bindingKey{name: name, cols: []int{c}})
	}
	return keys
}

// appendJSONTerm appends one RDF term object.
func appendJSONTerm(dst []byte, v rdf.KeyView) []byte {
	switch v.Kind {
	case rdf.IRI:
		dst = append(dst, `{"type":"uri","value":`...)
	case rdf.Blank:
		dst = append(dst, `{"type":"bnode","value":`...)
	default:
		dst = append(dst, `{"type":"literal","value":`...)
		dst = appendJSONString(dst, v.Value)
		if len(v.Lang) > 0 {
			dst = appendJSONString(append(dst, `,"xml:lang":`...), v.Lang)
		}
		if len(v.Datatype) > 0 {
			dst = appendJSONString(append(dst, `,"datatype":`...), v.Datatype)
		}
		return append(dst, '}')
	}
	return append(appendJSONString(dst, v.Value), '}')
}

// appendJSONString appends s as a JSON string the way encoding/json
// does with HTML escaping on: " and \\ and \n \r \t \b \f get short
// escapes, other control bytes and < > & become \u00XX, U+2028 and
// U+2029 become \u2028 and \u2029, and each invalid UTF-8 byte becomes
// \ufffd.
func appendJSONString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// Only a ≤4-byte window is converted, so the string stays on
		// the stack for []byte input.
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// ReadJSON decodes a SPARQL 1.1 JSON result document. The decode is
// lossless: it is the exact inverse of WriteJSON.
func ReadJSON(rd io.Reader) (*db2rdf.Results, error) {
	var doc jsonResults
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("results: decoding JSON: %w", err)
	}
	if doc.Boolean != nil {
		return &db2rdf.Results{IsAsk: true, Ask: *doc.Boolean}, nil
	}
	if doc.Results == nil {
		return nil, fmt.Errorf("results: JSON document has neither boolean nor results")
	}
	out := &db2rdf.Results{Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make([]db2rdf.Binding, len(out.Vars))
		for i, v := range out.Vars {
			jt, ok := b[v]
			if !ok {
				continue
			}
			t, err := decodeJSONTerm(jt)
			if err != nil {
				return nil, err
			}
			row[i] = db2rdf.Binding{Bound: true, Term: t}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func decodeJSONTerm(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.NewIRI(jt.Value), nil
	case "bnode":
		return rdf.NewBlank(jt.Value), nil
	case "literal", "typed-literal":
		switch {
		case jt.Lang != "":
			return rdf.NewLangLiteral(jt.Value, jt.Lang), nil
		case jt.Datatype != "":
			return rdf.NewTypedLiteral(jt.Value, jt.Datatype), nil
		default:
			return rdf.NewLiteral(jt.Value), nil
		}
	}
	return rdf.Term{}, fmt.Errorf("results: unknown term type %q", jt.Type)
}
