package results

// The encoders share one shape: read cells through a source, append
// their bytes to a pooled buffer, hand the buffer to the writer each
// time it passes flushBytes. A source is either a decoded
// *db2rdf.Results or a *db2rdf.Solutions still in dictionary ids; both
// yield a cell as an rdf.KeyView, so every format has exactly one
// encoder and the two adapters below are all that differs.

import (
	"fmt"
	"io"
	"sync"

	"db2rdf"
	"db2rdf/internal/rdf"
)

// source is what an encoder reads: an ASK answer, or the variables and
// rows of a SELECT.
type source interface {
	ask() (isAsk, answer bool)
	vars() []string
	rows() int
	// cell views the term bound to variable c in row r; ok is false
	// when it is unbound. The view is valid until the next call.
	cell(r, c int) (v rdf.KeyView, ok bool)
}

// resultsSource adapts decoded results. A row shorter than Vars leaves
// the missing variables unbound.
type resultsSource struct {
	res *db2rdf.Results
	buf []byte
}

func (s *resultsSource) ask() (bool, bool) { return s.res.IsAsk, s.res.Ask }
func (s *resultsSource) vars() []string    { return s.res.Vars }
func (s *resultsSource) rows() int         { return len(s.res.Rows) }

func (s *resultsSource) cell(r, c int) (rdf.KeyView, bool) {
	row := s.res.Rows[r]
	if c >= len(row) || !row[c].Bound {
		return rdf.KeyView{}, false
	}
	t := &row[c].Term
	s.buf = append(append(append(s.buf[:0], t.Value...), t.Lang...), t.Datatype...)
	v, l := len(t.Value), len(t.Value)+len(t.Lang)
	return rdf.KeyView{Kind: t.Kind, Value: s.buf[:v], Lang: s.buf[v:l], Datatype: s.buf[l:]}, true
}

// solutionsSource adapts solutions in dictionary ids: each cell is its
// key copied out of the front-coded dictionary and viewed in place.
type solutionsSource struct {
	sol *db2rdf.Solutions
	key []byte
}

func (s *solutionsSource) ask() (bool, bool) { return s.sol.IsAsk, s.sol.Ask }
func (s *solutionsSource) vars() []string    { return s.sol.Vars }
func (s *solutionsSource) rows() int         { return s.sol.Len() }

func (s *solutionsSource) cell(r, c int) (rdf.KeyView, bool) {
	var ok bool
	if s.key, ok = s.sol.AppendKey(s.key[:0], r, c); !ok {
		return rdf.KeyView{}, false
	}
	v, err := rdf.ParseKey(s.key)
	if err != nil {
		// Stored keys come from rdf.Term.Key; a malformed one means the
		// dictionary itself is corrupt.
		panic(fmt.Sprintf("results: corrupt dictionary key: %v", err))
	}
	return v, true
}

// flushBytes is the buffered size at which an encoder writes.
const flushBytes = 32 << 10

// bufPool recycles encoder buffers, so a small answer allocates no
// buffer and a large one reuses a grown one. Buffers that one huge cell
// grew past maxPooled are dropped rather than pinned.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooled = 4 * flushBytes

// encoder appends output to buf and writes it to w in flushBytes
// pieces. After a write error it stops writing and reports that error.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
	pb  *[]byte
}

func newEncoder(w io.Writer) encoder {
	pb := bufPool.Get().(*[]byte)
	return encoder{w: w, buf: (*pb)[:0], pb: pb}
}

// endRow writes the buffer once it is full and reports whether encoding
// should go on (false after a write error: the client left).
func (e *encoder) endRow() bool {
	if len(e.buf) >= flushBytes {
		e.flush()
	}
	return e.err == nil
}

func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// close writes what is left, recycles the buffer and returns the first
// write error.
func (e *encoder) close() error {
	e.flush()
	if cap(e.buf) <= maxPooled {
		*e.pb = e.buf
		bufPool.Put(e.pb)
	}
	e.buf = nil
	return e.err
}
