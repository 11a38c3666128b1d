package rel

import "testing"

// FuzzChunkRoundTrip drives random tables — NULLs, tombstones, all-NULL
// stretches, wide int spreads that defeat bit-packing, negative ids,
// constant runs, sealed and raw chunks — through
// EncodeSnapshot → DecodeSnapshot and requires the decoded table to be
// logically identical, then re-publishes and round-trips the decoded
// table again so the verbatim packed re-emit path is covered too.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 0, 17, 96}, uint16(2600), true)
	f.Add([]byte{0xff, 0x10, 0x42}, uint16(1100), false)
	f.Add([]byte{0, 0, 0, 0}, uint16(5000), true)
	f.Fuzz(func(t *testing.T, data []byte, nrows uint16, seal bool) {
		if len(data) == 0 {
			data = []byte{0}
		}
		n := int(nrows) % 5000
		at := func(i int) byte { return data[i%len(data)] }
		src := NewTable("F", Schema{{Name: "a"}, {Name: "b"}, {Name: "c"}})
		for i := 0; i < n; i++ {
			d := at(i)
			r := Row{ID(int64(d) + int64(i)), ID(int64(d % 26)), ID(-int64(d) / 2)}
			switch d % 8 {
			case 0:
				r[0] = NullCell
			case 1:
				r[0] = ID(int64(d) << 55) // wide spread: seal keeps raw ints
			case 2:
				r[0] = ID(-int64(i) << 20) // negative, spread past 32 bits
			case 3:
				r[1] = NullCell
			case 4:
				r[2] = ID(7) // constant runs pack at width 0
			case 5:
				r[1], r[2] = NullCell, NullCell
			}
			if at(i/chunkRows)&3 == 0 {
				r[1] = NullCell // whole-chunk all-NULL stretches
			}
			if err := src.Insert(r); err != nil {
				t.Fatal(err)
			}
			if seal && i == n/2 {
				src.Publish() // seal the first half; the rest stays raw
			}
		}
		for i := 0; i < n; i++ {
			if at(i)&0x10 != 0 {
				if err := src.DeleteRow(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		if seal {
			src.Publish() // seal everything, including post-delete clones
		}
		buf := src.EncodeSnapshot(nil)
		dst := NewTable("F", src.Schema)
		if err := dst.DecodeSnapshot(buf); err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, src.Rows(), dst.Rows())
		if dst.Len() != src.Len() || dst.DeadRows() != src.DeadRows() {
			t.Fatalf("len %d/%d dead %d/%d", dst.Len(), src.Len(), dst.DeadRows(), src.DeadRows())
		}
		// Second trip through the decoded (sealed/dense-shared) chunks.
		dst.Publish()
		buf2 := dst.EncodeSnapshot(nil)
		dst2 := NewTable("F", src.Schema)
		if err := dst2.DecodeSnapshot(buf2); err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, src.Rows(), dst2.Rows())
	})
}
