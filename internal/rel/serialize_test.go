package rel

import (
	"bytes"
	"fmt"
	"math"
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
		if len(a[i]) != len(b[i]) {
			t.Fatalf("row %d width %d != %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			av, bv := a[i][j], b[i][j]
			if av.K != bv.K || av.I != bv.I || av.S != bv.S ||
				(av.F != bv.F && !(math.IsNaN(av.F) && math.IsNaN(bv.F))) {
				t.Fatalf("row %d col %d: %v != %v", i, j, av, bv)
			}
		}
	}
}

func buildMixedTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("T", Schema{
		{Name: "a", Type: TInt},
		{Name: "b", Type: TString},
		{Name: "c", Type: TFloat},
	})
	for i := 0; i < 2600; i++ {
		r := Row{Int(int64(i * 7)), Str(fmt.Sprintf("s%d", i)), Float(float64(i) / 3)}
		switch i % 5 {
		case 1:
			r[0] = Null
		case 2:
			r[1] = Null
		case 3:
			r[0] = Str("exc") // kind mismatch → exception map
			r[2] = Null
		case 4:
			r[2] = Bool(true) // exception in a float column
		}
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := buildMixedTable(t)
	dst := snapshotRoundTrip(t, src)
	rowsEqual(t, src.Rows(), dst.Rows())
	if dst.Len() != src.Len() || dst.DeadRows() != 0 {
		t.Fatalf("len=%d dead=%d", dst.Len(), dst.DeadRows())
	}
	if err := dst.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	ids, ok := dst.IndexLookup("a", Int(35))
	if !ok || len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("index probe after decode: %v %v", ids, ok)
	}
}

// TestSnapshotReclaimsDeadCells deletes most rows and checks that the
// encoding shrinks while the decoded table is row-identical (and keeps
// stable physical indices via the preserved tombstone bitmaps).
func TestSnapshotReclaimsDeadCells(t *testing.T) {
	src := buildMixedTable(t)
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
	if dst.CellAt(1, 0).K != KindNull {
		t.Fatalf("dead row 1 cell resurfaced: %v", dst.CellAt(1, 0))
	}
}

// TestSnapshotDecodeCorruption feeds truncations and bit flips of a
// valid encoding to the decoder: it must error or succeed, never panic,
// and the table must remain usable (empty) after a failed decode.
func TestSnapshotDecodeCorruption(t *testing.T) {
	src := buildMixedTable(t)
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
		if err := dst.Insert(make(Row, len(src.Schema))); err != nil {
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
	src := NewTable("T", Schema{{Name: "a", Type: TInt}})
	src.Insert(Row{Int(1)})
	buf := src.EncodeSnapshot(nil)
	wrong := NewTable("W", Schema{{Name: "a", Type: TInt}, {Name: "b", Type: TInt}})
	if err := wrong.DecodeSnapshot(buf); err == nil {
		t.Fatal("schema-width mismatch not rejected")
	}
	nonEmpty := NewTable("T", src.Schema)
	nonEmpty.Insert(Row{Int(2)})
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
