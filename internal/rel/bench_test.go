package rel

import (
	"fmt"
	"testing"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := NewDB()
	t, err := db.CreateTable("t", Schema{
		{Name: "id"},
		{Name: "grp"},
		{Name: "val"},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := t.CreateIndex("id"); err != nil {
		b.Fatal(err)
	}
	if err := t.CreateIndex("grp"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := t.Insert(Row{ID(int64(i)), ID(int64(i % 100)), ID(int64(i * 3))}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkSQLParse(b *testing.B) {
	q := `WITH a AS (SELECT T.id AS id, T.val AS v FROM t AS T WHERE T.grp = 5)
SELECT a.id AS id, COALESCE(a.v, 0) AS v, CASE WHEN a.v > 10 THEN 1 ELSE 0 END AS big FROM a AS a ORDER BY id LIMIT 10`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexPointLookup(b *testing.B) {
	db := benchDB(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := query(db, fmt.Sprintf("SELECT T.val AS val FROM t AS T WHERE T.id = %d", i%100000))
		if err != nil || len(rs.Rows) != 1 {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexGroupLookup(b *testing.B) {
	db := benchDB(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := query(db, "SELECT T.val AS val FROM t AS T WHERE T.grp = 7")
		if err != nil || len(rs.Rows) != 1000 {
			b.Fatalf("err=%v rows=%d", err, len(rs.Rows))
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(b, 20000)
	q := "SELECT a.id AS id FROM t AS a, t AS b WHERE a.val = b.val AND a.grp = 3"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexNestedLoopJoin(b *testing.B) {
	db := benchDB(b, 100000)
	// Selective left side drives an indexed probe into the base table.
	q := "SELECT a.id AS id, b.val AS val FROM t AS a, t AS b WHERE a.grp = 3 AND b.id = a.val"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullScanFilter(b *testing.B) {
	db := benchDB(b, 100000)
	q := "SELECT T.id AS id FROM t AS T WHERE T.val = 300"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanFilter measures the vectorized scan path (vecscan.go)
// over a 256k-row unindexed table, crossing selectivity with zone-map
// effectiveness: "clustered" data is ascending so min/max pruning can
// skip almost every chunk, "shuffled" data defeats the zone maps and
// forces the selection-vector kernels to evaluate every chunk.
func BenchmarkScanFilter(b *testing.B) {
	const n = 1 << 18
	build := func(b *testing.B, clustered bool) *DB {
		b.Helper()
		db := NewDB()
		t, err := db.CreateTable("sf", Schema{{Name: "v"}, {Name: "pad"}})
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]Row, n)
		for i := range rows {
			v := int64(i)
			if !clustered {
				// Spread values across the whole domain per chunk so
				// every chunk's [min,max] covers every literal.
				v = int64((i*2654435761 + 12345) % n)
			}
			rows[i] = Row{ID(v), ID(int64(i))}
		}
		for _, rw := range rows {
			if err := t.Insert(rw); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	cases := []struct {
		name      string
		clustered bool
		query     string
		rows      int
	}{
		{"selective_zoneskip", true, "SELECT T.pad AS pad FROM sf AS T WHERE T.v = 70000", 1},
		{"selective_noskip", false, "SELECT T.pad AS pad FROM sf AS T WHERE T.v = 70000", 1},
		{"range_zoneskip", true, "SELECT T.pad AS pad FROM sf AS T WHERE T.v < 1000", 1000},
		{"range_noskip", false, "SELECT T.pad AS pad FROM sf AS T WHERE T.v < 1000", 1000},
		{"nonselective", true, "SELECT T.pad AS pad FROM sf AS T WHERE T.v >= 0", n},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			db := build(b, c.clustered)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := query(db, c.query)
				if err != nil || len(rs.Rows) != c.rows {
					b.Fatalf("err=%v rows=%d want %d", err, len(rs.Rows), c.rows)
				}
			}
		})
	}
}

// BenchmarkScanFilterLarge measures the same scan kernels at 1M+ rows
// in both chunk layouts: "raw" is the writer-side typed-slice form,
// "sealed" is the FoR bit-packed form every chunk assumes after a
// publish, where col-cmp-intlit selection compares the rebased literal
// against packed deltas in place. This is the flat-latency claim of
// the compressed representation, measured where it matters.
func BenchmarkScanFilterLarge(b *testing.B) {
	const n = 1 << 20
	build := func(b *testing.B, clustered, sealed bool) *DB {
		b.Helper()
		db := NewDB()
		t, err := db.CreateTable("sf", Schema{{Name: "v"}, {Name: "pad"}})
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]Row, n)
		for i := range rows {
			v := int64(i)
			if !clustered {
				v = int64((i*2654435761 + 12345) % n)
			}
			rows[i] = Row{ID(v), ID(int64(i))}
		}
		for _, rw := range rows {
			if err := t.Insert(rw); err != nil {
				b.Fatal(err)
			}
		}
		if sealed {
			t.Publish() // live directory now points at sealed chunks
		}
		return db
	}
	cases := []struct {
		name      string
		clustered bool
		query     string
		rows      int
	}{
		{"selective_zoneskip", true, "SELECT T.pad AS pad FROM sf AS T WHERE T.v = 700000", 1},
		{"selective_noskip", false, "SELECT T.pad AS pad FROM sf AS T WHERE T.v = 700000", 1},
		{"range_noskip", false, "SELECT T.pad AS pad FROM sf AS T WHERE T.v < 1000", 1000},
	}
	for _, c := range cases {
		for _, layout := range []string{"raw", "sealed"} {
			b.Run(c.name+"/"+layout, func(b *testing.B) {
				db := build(b, c.clustered, layout == "sealed")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rs, err := query(db, c.query)
					if err != nil || len(rs.Rows) != c.rows {
						b.Fatalf("err=%v rows=%d want %d", err, len(rs.Rows), c.rows)
					}
				}
			})
		}
	}
}

func BenchmarkLeftOuterJoin(b *testing.B) {
	db := benchDB(b, 20000)
	q := "SELECT a.id AS id, b.val AS val FROM t AS a LEFT OUTER JOIN t AS b ON b.id = a.val"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertIndexed(b *testing.B) {
	db := NewDB()
	t, err := db.CreateTable("ins", Schema{{Name: "a"}, {Name: "b"}})
	if err != nil {
		b.Fatal(err)
	}
	if err := t.CreateIndex("a"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Insert(Row{ID(int64(i)), ID(int64(i * 2))}); err != nil {
			b.Fatal(err)
		}
	}
}
