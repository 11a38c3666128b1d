package rel

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

func snapshotRoundTrip(t *testing.T, src *Table) *Table {
	t.Helper()
	buf := src.EncodeSnapshot(nil)
	dst := NewTable(src.Name, src.Schema)
	if err := dst.DecodeSnapshot(buf); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return dst
}

func rowsEqual(t *testing.T, a, b []Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("row count %d != %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("row %d: %v != %v", i, a[i], b[i])
		}
	}
}

// buildIntTable fills three columns over 2600 rows: a = 7i (NULL on
// every fifth row), b spread across 40+ bits (sealing keeps it raw), c
// small with an all-NULL stretch over the second chunk.
func buildIntTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("T", Schema{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	for i := 0; i < 2600; i++ {
		r := Row{ID(int64(i * 7)), ID(int64(i) << 40), ID(int64(i % 3))}
		switch i % 5 {
		case 1:
			r[0] = NullCell
		case 2:
			r[1] = NullCell
		}
		if i >= chunkRows && i < 2*chunkRows {
			r[2] = NullCell
		}
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestSnapshotRoundTrip: raw chunks and, after Publish, sealed ones
// (bit-packed, dense-shared, wide spreads kept raw) decode to the same
// rows, and an index rebuilt on the decoded table finds them.
func TestSnapshotRoundTrip(t *testing.T) {
	src := buildIntTable(t)
	for _, st := range chunkStates {
		if st == statePublished {
			src.Publish()
		}
		dst := snapshotRoundTrip(t, src)
		rowsEqual(t, src.Rows(), dst.Rows())
		if dst.Len() != src.Len() || dst.DeadRows() != 0 {
			t.Fatalf("%v: len=%d dead=%d", st, dst.Len(), dst.DeadRows())
		}
		if err := dst.CreateIndex("a"); err != nil {
			t.Fatal(err)
		}
		ids, ok := dst.IndexLookup("a", 35)
		if !ok || len(ids) != 1 || ids[0] != 5 {
			t.Fatalf("%v: index probe after decode: %v %v", st, ids, ok)
		}
	}
}

// formatTable builds a fixed table whose encoding uses every chunk
// marker — absent (all-NULL and fully tombstoned), raw (sparse, wide,
// unsealed, or sealed with dirty tombstones), dense-raw (a dense wide
// spread), packed and dense-packed (including width 0) — plus a chunk
// compacted at publish and tombstoned cells still dirty in sealed chunks.
func formatTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("S", Schema{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	ins := func(r Row) {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6*chunkRows; i++ {
		ci, off := i>>chunkShift, int64(i&chunkMask)
		r := Row{NullCell, NullCell, NullCell}
		switch ci {
		case 0:
			r[0], r[1] = ID(off%50), ID(int64(i))
			if off%3 != 0 {
				r[2] = ID(100 + off)
			}
		case 1:
			if off%4 != 0 {
				r[0] = ID(5000 + off*3)
			}
			r[1] = ID(off << 40)
		case 2:
			if off%2 == 0 {
				r[1] = ID(-(off << 36))
			}
			r[2] = ID(7)
		case 3:
			r[0], r[2] = ID(off), ID(-off)
			if off%7 != 0 {
				r[1] = ID(off * off)
			}
		case 4:
			r[0], r[1] = ID(off), ID(1)
		case 5:
			r[0], r[1], r[2] = ID(off%3), ID(off+1), ID(off*9)
		}
		ins(r)
	}
	for off := 0; off < 900; off += 3 {
		if err := tb.DeleteRow(5*chunkRows + off); err != nil {
			t.Fatal(err)
		}
	}
	tb.Publish()
	for off := 0; off < chunkRows; off++ {
		if off%5 == 0 {
			if err := tb.DeleteRow(3*chunkRows + off); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.DeleteRow(4*chunkRows + off); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 300; i++ {
		r := Row{ID(i), NullCell, ID(i << 50)}
		if i%2 == 0 {
			r[1] = ID(i)
		}
		ins(r)
	}
	return tb
}

// TestSnapshotEncodingUnchanged pins the snapshot byte layout: the
// encoding of formatTable must hash to the value recorded when columns
// could still hold floats, strings and out-of-line cells, so data
// directories written then reopen unchanged. The decoded table must
// hold the same rows and re-encode to the same bytes.
func TestSnapshotEncodingUnchanged(t *testing.T) {
	const wantLen, wantSum = 29186, "a80ec4afd2ec28e828b117114d9bee0faadf44e41bda8f248f467ae9eb15a57b"
	src := formatTable(t)
	buf := src.EncodeSnapshot(nil)
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); len(buf) != wantLen || got != wantSum {
		t.Fatalf("snapshot encoding changed: %d bytes sha256 %s, want %d bytes sha256 %s", len(buf), got, wantLen, wantSum)
	}
	dst := snapshotRoundTrip(t, src)
	rowsEqual(t, src.Rows(), dst.Rows())
	if dst.Len() != src.Len() || dst.DeadRows() != src.DeadRows() {
		t.Fatalf("len %d/%d dead %d/%d", dst.Len(), src.Len(), dst.DeadRows(), src.DeadRows())
	}
	if again := snapshotRoundTrip(t, dst).EncodeSnapshot(nil); !bytes.Equal(again, dst.EncodeSnapshot(nil)) {
		t.Fatal("a decoded table does not re-encode to the same bytes")
	}
}

// outOfLineSeeds returns encodings of a one-column, one-row table whose
// chunk carries out-of-line cells, as snapshots could when columns held
// other kinds: an Int cell, and a String cell with its length payload.
func outOfLineSeeds(t testing.TB) map[string][]byte {
	src := NewTable("O", Schema{{Name: "a"}})
	if err := src.Insert(Row{ID(5)}); err != nil {
		t.Fatal(err)
	}
	valid := src.EncodeSnapshot(nil)
	if valid[len(valid)-1] != 0 {
		t.Fatalf("encoding does not end with a zero out-of-line count: % x", valid)
	}
	withCell := func(cell ...byte) []byte {
		out := append([]byte(nil), valid[:len(valid)-1]...)
		out = append(out, 1, 0) // one cell, at offset 0
		return append(out, cell...)
	}
	str := append([]byte{byte(KindString)}, binary.AppendUvarint(nil, 5)...)
	return map[string][]byte{
		"int cell":          withCell(append([]byte{byte(KindInt)}, binary.AppendVarint(nil, 9)...)...),
		"string cell":       withCell(append(str, "hello"...)...),
		"string past input": withCell(append([]byte{byte(KindString)}, binary.AppendUvarint(nil, 1<<40)...)...),
	}
}

// TestSnapshotRejectsOutOfLineCells: a chunk with a nonzero out-of-line
// cell count is refused with an error, and the table stays empty.
func TestSnapshotRejectsOutOfLineCells(t *testing.T) {
	for name, data := range outOfLineSeeds(t) {
		dst := NewTable("O", Schema{{Name: "a"}})
		err := dst.DecodeSnapshot(data)
		if err == nil || !strings.Contains(err.Error(), "out-of-line") {
			t.Fatalf("%s: want an out-of-line cell error, got %v", name, err)
		}
		if dst.Len() != 0 {
			t.Fatalf("%s: failed decode left %d rows", name, dst.Len())
		}
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to DecodeSnapshot: it must
// error or succeed, never panic; a failed decode leaves the table empty,
// and a successful one re-encodes to bytes that decode and re-encode to
// themselves. (Bytes, not rows: a decoded header may claim billions of
// all-NULL rows.)
func FuzzSnapshotDecode(f *testing.F) {
	one := NewTable("O", Schema{{Name: "a"}})
	for i := 0; i < 1500; i++ {
		v := ID(int64(i % 13))
		if i%4 == 0 {
			v = NullCell
		}
		if err := one.Insert(Row{v}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(one.EncodeSnapshot(nil))
	one.Publish()
	f.Add(one.EncodeSnapshot(nil))
	for _, seed := range outOfLineSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := NewTable("O", Schema{{Name: "a"}})
		if err := dst.DecodeSnapshot(data); err != nil {
			if dst.Len() != 0 {
				t.Fatalf("failed decode left %d rows", dst.Len())
			}
			return
		}
		first := dst.EncodeSnapshot(nil)
		if again := snapshotRoundTrip(t, dst).EncodeSnapshot(nil); !bytes.Equal(again, first) {
			t.Fatalf("re-encoding a decoded table is not stable: %d bytes, then %d", len(first), len(again))
		}
	})
}

// TestSnapshotReclaimsDeadCells deletes most rows and checks that the
// encoding shrinks while the decoded table is row-identical (and keeps
// stable physical indices via the preserved tombstone bitmaps).
func TestSnapshotReclaimsDeadCells(t *testing.T) {
	src := buildIntTable(t)
	full := src.EncodeSnapshot(nil)
	for i := 0; i < src.Len(); i++ {
		if i%8 != 0 {
			if err := src.DeleteRow(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := src.EncodeSnapshot(nil)
	if len(small) >= len(full) {
		t.Fatalf("delete-heavy encoding did not shrink: %d >= %d", len(small), len(full))
	}
	dst := snapshotRoundTrip(t, src)
	rowsEqual(t, src.Rows(), dst.Rows())
	if dst.DeadRows() != src.DeadRows() || dst.Len() != src.Len() {
		t.Fatalf("dead=%d/%d len=%d/%d", dst.DeadRows(), src.DeadRows(), dst.Len(), src.Len())
	}
	// Physical indices must be preserved: live row 40 still reads back.
	r := dst.RowAt(40)
	if r[0].I != 280 {
		t.Fatalf("row 40 after round trip: %v", r)
	}
	if !dst.CellAt(1, 0).IsNull() {
		t.Fatalf("dead row 1 cell resurfaced: %v", dst.CellAt(1, 0))
	}
}

// TestSnapshotDecodeCorruption feeds truncations and bit flips of a
// valid encoding to the decoder: it must error or succeed, never panic,
// and the table must remain usable (empty) after a failed decode.
func TestSnapshotDecodeCorruption(t *testing.T) {
	src := buildIntTable(t)
	for i := 0; i < 40; i++ {
		src.DeleteRow(i * 3)
	}
	buf := src.EncodeSnapshot(nil)
	for cut := 0; cut < len(buf); cut += 17 {
		dst := NewTable("T", src.Schema)
		if err := dst.DecodeSnapshot(buf[:cut]); err == nil {
			// A truncation that still parses must at least be
			// self-consistent.
			_ = dst.Rows()
		}
		if dst.Len() != 0 && dst.Len() != src.Len() {
			_ = dst.Rows() // must not panic regardless
		}
		if err := dst.Insert(NullRow(len(src.Schema))); err != nil {
			t.Fatalf("cut=%d: table unusable after decode: %v", cut, err)
		}
	}
	for pos := 0; pos < len(buf); pos += 13 {
		mut := append([]byte(nil), buf...)
		mut[pos] ^= 0x55
		dst := NewTable("T", src.Schema)
		if err := dst.DecodeSnapshot(mut); err == nil {
			_ = dst.Rows()
		}
	}
}

func TestSnapshotDecodeGuards(t *testing.T) {
	src := NewTable("T", Schema{{Name: "a"}})
	src.Insert(Row{ID(1)})
	buf := src.EncodeSnapshot(nil)
	wrong := NewTable("W", Schema{{Name: "a"}, {Name: "b"}})
	if err := wrong.DecodeSnapshot(buf); err == nil {
		t.Fatal("schema-width mismatch not rejected")
	}
	nonEmpty := NewTable("T", src.Schema)
	nonEmpty.Insert(Row{ID(2)})
	if err := nonEmpty.DecodeSnapshot(buf); err == nil {
		t.Fatal("decode into non-empty table not rejected")
	}
	if err := NewTable("T", src.Schema).DecodeSnapshot(append(buf, 0)); err == nil {
		t.Fatal("trailing bytes not rejected")
	}
	// Encoding must be deterministic for identical content.
	buf2 := src.EncodeSnapshot(nil)
	if !bytes.Equal(buf, buf2) {
		t.Fatal("encoding not deterministic")
	}
}
