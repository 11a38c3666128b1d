package results

// SPARQL 1.1 Query Results CSV Format: RFC 4180 records (CRLF line
// endings, fields quoted when they contain comma, quote, CR or LF),
// header row of variable names WITHOUT the "?" prefix, and terms
// serialized as bare lexical values — IRIs without angle brackets,
// literals without quotes or lang/datatype decoration, blank nodes as
// "_:label". The format is intentionally lossy; see the package doc
// for what ReadCSV can and cannot reconstruct.

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"db2rdf"
	"db2rdf/internal/rdf"
)

// WriteCSV encodes r per the SPARQL 1.1 CSV results format.
func WriteCSV(w io.Writer, r *db2rdf.Results) error {
	return writeCSV(w, &resultsSource{res: r})
}

// writeCSV is the one CSV encoder. Its records are hand-rolled RFC
// 4180: encoding/csv's Writer rewrites a field-internal LF to CRLF and
// drops a field-internal CR when UseCRLF is set, both of which break
// lexical round-tripping of literals holding control characters.
func writeCSV(w io.Writer, src source) error {
	e := newEncoder(w)
	if isAsk, answer := src.ask(); isAsk {
		e.buf = append(e.buf, "ask\r\n"...)
		e.buf = strconv.AppendBool(e.buf, answer)
		e.buf = append(e.buf, "\r\n"...)
		return e.close()
	}
	vars := src.vars()
	for i, v := range vars {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendCSVField(e.buf, "", v)
	}
	e.buf = append(e.buf, "\r\n"...)
	for r, n := 0, src.rows(); r < n; r++ {
		for c := range vars {
			if c > 0 {
				e.buf = append(e.buf, ',')
			}
			v, ok := src.cell(r, c)
			switch {
			case !ok:
			case v.Kind == rdf.Blank:
				e.buf = appendCSVField(e.buf, "_:", v.Value)
			default: // bare IRI or literal lexical form
				e.buf = appendCSVField(e.buf, "", v.Value)
			}
		}
		e.buf = append(e.buf, "\r\n"...)
		if !e.endRow() {
			break
		}
	}
	return e.close()
}

// appendCSVField appends the field prefix+value, quoted with inner
// quotes doubled when it holds a comma, quote, CR or LF. The prefix
// ("_:" for blank nodes) never does.
func appendCSVField[S ~string | ~[]byte](dst []byte, prefix string, value S) []byte {
	quote := false
	for i := 0; i < len(value) && !quote; i++ {
		switch value[i] {
		case ',', '"', '\r', '\n':
			quote = true
		}
	}
	if !quote {
		return append(append(dst, prefix...), value...)
	}
	dst = append(append(dst, '"'), prefix...)
	start := 0
	for i := 0; i < len(value); i++ {
		if value[i] == '"' {
			dst = append(append(dst, value[start:i]...), '"', '"')
			start = i + 1
		}
	}
	return append(append(dst, value[start:]...), '"')
}

// ReadCSV decodes a SPARQL CSV result document with a strict RFC 4180
// parser. (encoding/csv is not used on the read side: its Reader
// normalizes away a bare CR inside a quoted field, which RFC 4180
// preserves.) Term kinds are reconstructed heuristically ("_:" prefix
// → blank node, absolute-IRI shape → IRI, otherwise plain literal);
// lexical values round-trip exactly, including embedded commas, quotes
// and line breaks.
func ReadCSV(rd io.Reader) (*db2rdf.Results, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("results: decoding CSV: %w", err)
	}
	all, err := parseRFC4180(string(data))
	if err != nil {
		return nil, fmt.Errorf("results: decoding CSV: %w", err)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("results: empty CSV document")
	}
	header, records := all[0], all[1:]
	if len(header) == 1 && header[0] == "ask" && len(records) == 1 {
		return &db2rdf.Results{IsAsk: true, Ask: records[0][0] == "true"}, nil
	}
	out := &db2rdf.Results{Vars: header}
	for _, rec := range records {
		row := make([]db2rdf.Binding, len(header))
		for i := range header {
			if i >= len(rec) {
				continue
			}
			// An empty field is an unbound variable. (A bound empty
			// literal is indistinguishable — inherent CSV lossiness.)
			if rec[i] == "" {
				continue
			}
			row[i] = db2rdf.Binding{Bound: true, Term: csvTerm(rec[i])}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// parseRFC4180 splits a CSV document into records per RFC 4180:
// records separated by CRLF (a lone LF is tolerated), fields by
// commas, and quoted fields preserving every byte — including bare CR,
// LF and commas — with "" unescaping to one quote. A final record
// without a trailing line break is accepted.
func parseRFC4180(in string) ([][]string, error) {
	var records [][]string
	var record []string
	var field strings.Builder
	started := false // current record has consumed a field token
	endField := func() {
		record = append(record, field.String())
		field.Reset()
	}
	endRecord := func() {
		endField()
		records = append(records, record)
		record = nil
		started = false
	}
	for i := 0; i < len(in); {
		if field.Len() == 0 && in[i] == '"' {
			// Quoted field: scan to the closing quote.
			started = true
			i++
			for {
				j := strings.IndexByte(in[i:], '"')
				if j < 0 {
					return nil, fmt.Errorf("unterminated quoted field")
				}
				field.WriteString(in[i : i+j])
				i += j + 1
				if i < len(in) && in[i] == '"' {
					field.WriteByte('"')
					i++
					continue
				}
				break
			}
			if i < len(in) && in[i] != ',' && in[i] != '\r' && in[i] != '\n' {
				return nil, fmt.Errorf("data after closing quote at offset %d", i)
			}
			continue
		}
		switch c := in[i]; c {
		case ',':
			started = true
			endField()
			i++
		case '\r':
			if i+1 < len(in) && in[i+1] == '\n' {
				endRecord()
				i += 2
			} else {
				// A bare CR outside quotes is not a record separator;
				// RFC 4180 forbids it, be lenient and keep it.
				field.WriteByte(c)
				i++
			}
		case '\n':
			endRecord()
			i++
		default:
			started = true
			field.WriteByte(c)
			i++
		}
	}
	if started || field.Len() > 0 || len(record) > 0 {
		endRecord()
	}
	return records, nil
}

// csvTerm applies the documented decode heuristic to one field.
func csvTerm(field string) rdf.Term {
	if strings.HasPrefix(field, "_:") {
		return rdf.NewBlank(field[2:])
	}
	if looksLikeIRI(field) {
		return rdf.NewIRI(field)
	}
	return rdf.NewLiteral(field)
}

// looksLikeIRI reports whether the field has the shape of an absolute
// IRI: an RFC 3986 scheme followed by ':' with no whitespace anywhere.
func looksLikeIRI(s string) bool {
	colon := strings.IndexByte(s, ':')
	if colon <= 0 {
		return false
	}
	for i := 0; i < colon; i++ {
		c := s[i]
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		digit := c >= '0' && c <= '9'
		if i == 0 && !alpha {
			return false
		}
		if !alpha && !digit && c != '+' && c != '-' && c != '.' {
			return false
		}
	}
	return !strings.ContainsAny(s, " \t\r\n")
}
