// Package results implements the SPARQL query-result wire
// serializations shared by the CLI and the HTTP endpoint: the SPARQL
// 1.1 Query Results JSON Format, and the CSV and TSV formats (W3C
// "SPARQL 1.1 Query Results CSV and TSV Formats").
//
// Each format has one hand-written encoder, which reads either decoded
// Results or Solutions still in dictionary ids (encode.go), and a
// decoder, so the boundary is testable as a round trip:
//
//   - JSON and TSV are lossless: every term kind (IRI, plain,
//     language-tagged and datatyped literals, blank nodes) survives
//     encode→decode exactly.
//   - CSV is lossy by design (the spec serializes only lexical forms):
//     ReadCSV reconstructs terms with the documented heuristic — a
//     "_:" prefix reads as a blank node, an absolute-IRI shape as an
//     IRI, anything else as a plain literal — so lexical values always
//     survive, term kinds only when the heuristic can tell them apart.
//
// ASK results have no standard CSV/TSV mapping; this package encodes
// them as a single column named "ask" holding a boolean, and the
// decoders map that shape back to an ASK result.
package results

import (
	"io"
	"mime"
	"sort"
	"strconv"
	"strings"

	"db2rdf"
)

// Content types served and negotiated. JSONContentType is the
// default when the client accepts anything.
const (
	JSONContentType = "application/sparql-results+json"
	CSVContentType  = "text/csv; charset=utf-8"
	TSVContentType  = "text/tab-separated-values; charset=utf-8"
)

// Format identifies one supported serialization.
type Format int

const (
	JSON Format = iota
	CSV
	TSV
)

// String returns the format's canonical name (the CLI flag value).
func (f Format) String() string {
	switch f {
	case CSV:
		return "csv"
	case TSV:
		return "tsv"
	default:
		return "json"
	}
}

// ContentType returns the Content-Type header value for the format.
func (f Format) ContentType() string {
	switch f {
	case CSV:
		return CSVContentType
	case TSV:
		return TSVContentType
	default:
		return JSONContentType
	}
}

// Write encodes r in this format.
func (f Format) Write(w io.Writer, r *db2rdf.Results) error {
	return f.write(w, &resultsSource{res: r})
}

// WriteSolutions encodes s in this format straight from its dictionary
// ids, with the same bytes Write produces for s.Results(). The only
// error it can return is w's.
func (f Format) WriteSolutions(w io.Writer, s *db2rdf.Solutions) error {
	return f.write(w, &solutionsSource{sol: s})
}

func (f Format) write(w io.Writer, src source) error {
	switch f {
	case CSV:
		return writeCSV(w, src)
	case TSV:
		return writeTSV(w, src)
	default:
		return writeJSON(w, src)
	}
}

// mediaFormats lists the acceptable media types in order of preference,
// which decides a wildcard range such as text/*: lossless before lossy,
// so JSON, then TSV, then CSV. Bare application/json is accepted as an
// alias for the SPARQL JSON type.
var mediaFormats = []struct {
	name string
	f    Format
}{
	{"application/sparql-results+json", JSON},
	{"application/json", JSON},
	{"text/tab-separated-values", TSV},
	{"text/csv", CSV},
}

// Negotiate picks the response format for an Accept header per RFC
// 9110 semantics: media ranges are weighted by q-value, more specific
// ranges win ties, then header order, then the preference order of
// mediaFormats; an empty header means "anything" (JSON). The
// second return is false when the client accepts none of the
// supported formats — an HTTP 406.
func Negotiate(accept string) (Format, bool) {
	if strings.TrimSpace(accept) == "" {
		return JSON, true
	}
	type choice struct {
		f    Format
		q    float64
		spec int // 2 = exact type, 1 = type/*, 0 = */*
		pos  int // header order breaks remaining ties
	}
	var choices []choice
	for i, part := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		q := 1.0
		if qs, ok := params["q"]; ok {
			if v, err := strconv.ParseFloat(qs, 64); err == nil {
				q = v
			}
		}
		if q <= 0 {
			continue
		}
		switch {
		case mt == "*/*":
			choices = append(choices, choice{JSON, q, 0, i})
		case strings.HasSuffix(mt, "/*"):
			prefix := strings.TrimSuffix(mt, "*")
			for _, m := range mediaFormats {
				if strings.HasPrefix(m.name, prefix) {
					choices = append(choices, choice{m.f, q, 1, i})
				}
			}
		default:
			for _, m := range mediaFormats {
				if m.name == mt {
					choices = append(choices, choice{m.f, q, 2, i})
					break
				}
			}
		}
	}
	if len(choices) == 0 {
		return JSON, false
	}
	sort.SliceStable(choices, func(i, j int) bool {
		if choices[i].q != choices[j].q {
			return choices[i].q > choices[j].q
		}
		if choices[i].spec != choices[j].spec {
			return choices[i].spec > choices[j].spec
		}
		return choices[i].pos < choices[j].pos
	})
	return choices[0].f, true
}

// ParseFormat maps a CLI flag value to a Format.
func ParseFormat(name string) (Format, bool) {
	switch strings.ToLower(name) {
	case "json":
		return JSON, true
	case "csv":
		return CSV, true
	case "tsv":
		return TSV, true
	}
	return JSON, false
}
