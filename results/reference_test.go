package results_test

// The reference writers: the encoders this package had before they
// were hand-written, kept verbatim as the definition of the wire bytes.
// JSON is a document of maps handed to encoding/json, TSV writes
// Term.String as it was (a strings.Builder over the runes), CSV is the
// first RFC 4180 writer. The byte-identity tests below hold the
// encoders, over decoded Results and over Solutions from a store, to
// exactly these bytes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/results"
)

type refJSONResults struct {
	Head    refJSONHead   `json:"head"`
	Results *refJSONSolns `json:"results,omitempty"`
	Boolean *bool         `json:"boolean,omitempty"`
}

type refJSONHead struct {
	Vars []string `json:"vars,omitempty"`
}

type refJSONSolns struct {
	Bindings []map[string]refJSONTerm `json:"bindings"`
}

type refJSONTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

func refWriteJSON(w io.Writer, r *db2rdf.Results) error {
	doc := refJSONResults{}
	if r.IsAsk {
		b := r.Ask
		doc.Boolean = &b
	} else {
		doc.Head.Vars = r.Vars
		solns := &refJSONSolns{Bindings: make([]map[string]refJSONTerm, 0, len(r.Rows))}
		for _, row := range r.Rows {
			b := make(map[string]refJSONTerm, len(row))
			for i, cell := range row {
				if i >= len(r.Vars) || !cell.Bound {
					continue
				}
				b[r.Vars[i]] = refJSONTermOf(cell.Term)
			}
			solns.Bindings = append(solns.Bindings, b)
		}
		doc.Results = solns
	}
	return json.NewEncoder(w).Encode(doc)
}

func refJSONTermOf(t rdf.Term) refJSONTerm {
	switch t.Kind {
	case rdf.IRI:
		return refJSONTerm{Type: "uri", Value: t.Value}
	case rdf.Blank:
		return refJSONTerm{Type: "bnode", Value: t.Value}
	default:
		return refJSONTerm{Type: "literal", Value: t.Value, Lang: t.Lang, Datatype: t.Datatype}
	}
}

func refWriteTSV(w io.Writer, r *db2rdf.Results) error {
	bw := bufio.NewWriter(w)
	if r.IsAsk {
		fmt.Fprintf(bw, "?ask\n\"%s\"^^<%s>\n", refBoolLex(r.Ask), rdf.XSDBoolean)
		return bw.Flush()
	}
	for i, v := range r.Vars {
		if i > 0 {
			bw.WriteByte('\t')
		}
		bw.WriteByte('?')
		bw.WriteString(v)
	}
	bw.WriteByte('\n')
	for _, row := range r.Rows {
		for i := range r.Vars {
			if i > 0 {
				bw.WriteByte('\t')
			}
			if i < len(row) && row[i].Bound {
				bw.WriteString(refTermString(row[i].Term))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// refTermString is rdf.Term.String as it was written before the
// N-Triples rendering moved onto bytes.
func refTermString(t rdf.Term) string {
	switch t.Kind {
	case rdf.IRI:
		return "<" + t.Value + ">"
	case rdf.Blank:
		return "_:" + t.Value
	default:
		var b strings.Builder
		b.WriteByte('"')
		for _, r := range t.Value {
			switch r {
			case '"':
				b.WriteString(`\"`)
			case '\\':
				b.WriteString(`\\`)
			case '\n':
				b.WriteString(`\n`)
			case '\r':
				b.WriteString(`\r`)
			case '\t':
				b.WriteString(`\t`)
			default:
				b.WriteRune(r)
			}
		}
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	}
}

func refWriteCSV(w io.Writer, r *db2rdf.Results) error {
	bw := bufio.NewWriter(w)
	writeRecord := func(fields []string) {
		for i, f := range fields {
			if i > 0 {
				bw.WriteByte(',')
			}
			if strings.ContainsAny(f, ",\"\r\n") {
				bw.WriteByte('"')
				bw.WriteString(strings.ReplaceAll(f, `"`, `""`))
				bw.WriteByte('"')
			} else {
				bw.WriteString(f)
			}
		}
		bw.WriteString("\r\n")
	}
	if r.IsAsk {
		writeRecord([]string{"ask"})
		writeRecord([]string{refBoolLex(r.Ask)})
		return bw.Flush()
	}
	writeRecord(r.Vars)
	record := make([]string, len(r.Vars))
	for _, row := range r.Rows {
		for i := range record {
			record[i] = ""
			if i < len(row) && row[i].Bound {
				t := row[i].Term
				if t.Kind == rdf.Blank {
					record[i] = "_:" + t.Value
				} else {
					record[i] = t.Value
				}
			}
		}
		writeRecord(record)
	}
	return bw.Flush()
}

func refBoolLex(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// formats pairs each format with its reference writer.
var formats = []struct {
	f   results.Format
	ref func(io.Writer, *db2rdf.Results) error
}{
	{results.JSON, refWriteJSON},
	{results.TSV, refWriteTSV},
	{results.CSV, refWriteCSV},
}

// encodeBoth returns what the encoder and the reference make of r.
func encodeBoth(t testing.TB, f results.Format, ref func(io.Writer, *db2rdf.Results) error, r *db2rdf.Results) (got, want []byte) {
	t.Helper()
	var g, w bytes.Buffer
	if err := f.Write(&g, r); err != nil {
		t.Fatalf("%v: %v", f, err)
	}
	if err := ref(&w, r); err != nil {
		t.Fatalf("%v reference: %v", f, err)
	}
	return g.Bytes(), w.Bytes()
}

// firstDiff describes where two encodings part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-40)
	return fmt.Sprintf("at byte %d (len %d vs %d):\ngot  %q\nwant %q",
		i, len(got), len(want), got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
}
