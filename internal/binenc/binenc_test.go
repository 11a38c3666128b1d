package binenc

import (
	"encoding/binary"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	buf := []byte{7}
	buf = binary.LittleEndian.AppendUint64(buf, 1<<40+3)
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -5)
	buf = append(buf, "abc"...)
	r := NewReader(buf)
	if r.U8() != 7 || r.U64() != 1<<40+3 || r.Uvarint() != 300 || r.Varint() != -5 || string(r.Bytes(3)) != "abc" {
		t.Fatal("values do not round-trip")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

// TestReaderFirstErrorSticks checks that a failed read records its
// error, later reads yield zero values without panicking, and the
// first error is the one reported.
func TestReaderFirstErrorSticks(t *testing.T) {
	r := NewReader([]byte{0x80}) // an unterminated varint
	if r.Uvarint() != 0 || r.Err() == nil || r.Err().Error() != "bad uvarint" {
		t.Fatalf("err = %v, want bad uvarint", r.Err())
	}
	if r.U64() != 0 || r.U8() != 0 || r.Bytes(1) != nil || r.Varint() != 0 {
		t.Fatal("reads after an error must yield zero values")
	}
	if r.Err().Error() != "bad uvarint" {
		t.Fatalf("first error replaced by %v", r.Err())
	}
	if r := NewReader(make([]byte, 7)); r.U64() != 0 || r.Err() == nil || r.Bytes(-1) != nil {
		t.Fatal("short input must fail")
	}
}
