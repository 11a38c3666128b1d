package results

// SPARQL 1.1 Query Results TSV Format: header row of variable names
// WITH the "?" prefix, one solution per line, fields separated by a
// single tab, and each bound term serialized in SPARQL/N-Triples
// syntax — <iri>, "literal"@lang, "literal"^^<dt>, _:label — with
// tab, newline, carriage return, quote and backslash escaped inside
// literals, so the format is lossless. Unbound variables are empty
// fields.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"db2rdf"
	"db2rdf/internal/rdf"
)

// WriteTSV encodes r per the SPARQL 1.1 TSV results format.
func WriteTSV(w io.Writer, r *db2rdf.Results) error {
	return writeTSV(w, &resultsSource{res: r})
}

// writeTSV is the one TSV encoder. A bound field is the term's
// N-Triples form (rdf.KeyView.AppendNTriples, the same bytes as
// Term.String), which escapes \t \n \r " \\ inside literals: exactly
// the TSV field form.
func writeTSV(w io.Writer, src source) error {
	e := newEncoder(w)
	if isAsk, answer := src.ask(); isAsk {
		e.buf = append(e.buf, "?ask\n\""...)
		e.buf = strconv.AppendBool(e.buf, answer)
		e.buf = append(e.buf, "\"^^<"+rdf.XSDBoolean+">\n"...)
		return e.close()
	}
	vars := src.vars()
	for i, v := range vars {
		if i > 0 {
			e.buf = append(e.buf, '\t')
		}
		e.buf = append(append(e.buf, '?'), v...)
	}
	e.buf = append(e.buf, '\n')
	for r, n := 0, src.rows(); r < n; r++ {
		for c := range vars {
			if c > 0 {
				e.buf = append(e.buf, '\t')
			}
			if v, ok := src.cell(r, c); ok {
				e.buf = v.AppendNTriples(e.buf)
			}
		}
		e.buf = append(e.buf, '\n')
		if !e.endRow() {
			break
		}
	}
	return e.close()
}

// ReadTSV decodes a SPARQL TSV result document losslessly: each field
// is parsed with the N-Triples term grammar (rdf.ParseTerm).
func ReadTSV(rd io.Reader) (*db2rdf.Results, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("results: decoding TSV: %w", err)
		}
		return nil, fmt.Errorf("results: empty TSV document")
	}
	header := strings.Split(strings.TrimSuffix(sc.Text(), "\r"), "\t")
	vars := make([]string, len(header))
	for i, h := range header {
		vars[i] = strings.TrimPrefix(h, "?")
	}
	var rows [][]db2rdf.Binding
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSuffix(sc.Text(), "\r")
		fields := strings.Split(text, "\t")
		row := make([]db2rdf.Binding, len(vars))
		for i := range vars {
			if i >= len(fields) || fields[i] == "" {
				continue
			}
			t, err := rdf.ParseTerm(fields[i])
			if err != nil {
				return nil, fmt.Errorf("results: TSV line %d field %d: %w", line, i+1, err)
			}
			row[i] = db2rdf.Binding{Bound: true, Term: t}
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("results: decoding TSV: %w", err)
	}
	if len(vars) == 1 && vars[0] == "ask" && len(rows) == 1 && rows[0][0].Bound {
		t := rows[0][0].Term
		if t.Kind == rdf.Literal && t.Datatype == rdf.XSDBoolean {
			return &db2rdf.Results{IsAsk: true, Ask: t.Value == "true"}, nil
		}
	}
	return &db2rdf.Results{Vars: vars, Rows: rows}, nil
}
