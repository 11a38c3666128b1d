// Package binenc is the bounds-checked binary reader shared by the
// columnar table decoder (rel.Table.DecodeSnapshot) and the store's
// snapshot files: little-endian fixed-width words, varints and byte
// runs over one byte slice.
package binenc

import (
	"encoding/binary"
	"fmt"
)

// Reader decodes from a byte slice. Every read records the first error
// and subsequently yields zero values, so decode loops stay panic-free
// on arbitrary input and check Err once. Errors carry no package
// prefix; callers wrap them with their own.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a decode error unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bytes returns the next n bytes, aliasing the input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || n > r.Remaining() {
		r.Fail("truncated input")
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.off += n
	return v
}
