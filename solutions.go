package db2rdf

import (
	"fmt"
	"unsafe"

	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// Solutions is an executed SELECT or ASK answer still in dictionary
// ids: the executor's rows plus the published dictionary view that
// renders them. It is what SolveContext returns and what the wire
// encoders in package results read, so a served query decodes no term
// into an rdf.Term; Results turns it into the decoded form.
type Solutions struct {
	// Vars holds the projected variable names in order.
	Vars []string
	// Ask holds the answer for ASK queries.
	Ask bool
	// IsAsk marks ASK answers.
	IsAsk bool

	rows  []rel.Row  // projected columns first, hidden ones after
	terms *dict.View // covers every non-NULL projected cell (check)
}

// Len returns the number of solutions (0 for ASK and for nil).
func (s *Solutions) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// AppendKey appends to dst the dictionary key (rdf.Term.Key) of the
// term bound to variable col in solution row, and reports whether the
// variable is bound there; an unbound cell leaves dst unchanged. It
// allocates nothing beyond dst's growth.
func (s *Solutions) AppendKey(dst []byte, row, col int) ([]byte, bool) {
	v := s.rows[row][col]
	if v.IsNull() {
		return dst, false
	}
	return s.terms.AppendKey(dst, v.I), true
}

// check verifies that every non-NULL projected cell is a term id the
// view covers, so that rendering the solutions cannot fail.
func (s *Solutions) check() error {
	keep := len(s.Vars)
	for _, row := range s.rows {
		for _, v := range row[:keep] {
			if !v.IsNull() && !s.terms.Covers(v.I) {
				return fmt.Errorf("db2rdf: decoding result id %d: not a term id of the dictionary", v.I)
			}
		}
	}
	return nil
}

// Results decodes every bound cell into its term, in the same few
// allocations however many rows there are. Every row is a capped
// window of one binding slab. Every decoded key is copied into one
// byte arena, sized exactly by a first pass and never written again,
// and rdf.TermFromKey parses it there, so each term's strings alias
// the arena: a term kept from the answer keeps the whole arena alive.
func (s *Solutions) Results() (*Results, error) {
	out := &Results{Vars: s.Vars, Ask: s.Ask, IsAsk: s.IsAsk}
	n, keep := len(s.rows), len(s.Vars)
	if n == 0 {
		return out, nil
	}
	size := 0
	for _, row := range s.rows {
		for _, v := range row[:keep] {
			if !v.IsNull() {
				size += s.terms.KeyLen(v.I)
			}
		}
	}
	slab := make([]Binding, n*keep)
	arena := make([]byte, 0, size)
	out.Rows = make([][]Binding, n)
	for r, row := range s.rows {
		dst := slab[r*keep : (r+1)*keep : (r+1)*keep]
		for c, v := range row[:keep] {
			if v.IsNull() {
				continue
			}
			start := len(arena)
			arena = s.terms.AppendKey(arena, v.I)
			key := arena[start:]
			t, err := rdf.TermFromKey(unsafe.String(unsafe.SliceData(key), len(key)))
			if err != nil {
				return nil, fmt.Errorf("db2rdf: decoding result id %d: %w", v.I, err)
			}
			dst[c] = Binding{Bound: true, Term: t}
		}
		out.Rows[r] = dst
	}
	return out, nil
}

// rowCount is len(r.Rows), 0 for nil.
func (r *Results) rowCount() int {
	if r == nil {
		return 0
	}
	return len(r.Rows)
}
