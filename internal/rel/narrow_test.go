package rel

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The narrow-read equivalence property: what a core reads from a base
// table depends on the columns it names, and nothing it returns may.
// Every query below is written once with a marker, {*T=w} or
// {*A=w,B=v}, after the named select items of a core over base tables:
// each alias with the table it names. The narrow spelling drops the
// marker; the wide spelling turns it into an item for every column of
// every listed alias, which forces the full width of those aliases
// through the same scans, probes and joins, and the test projects the
// extra columns away again. Both spellings must return the same rows in
// the same order, sequentially and across four workers.

var wideMarker = regexp.MustCompile(`\{\*([A-Za-z0-9,=]+)\}`)

// narrowColumns are the columns of narrowDB's tables.
var narrowColumns = map[string][]string{
	"w": {"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11", "c12", "c13", "c14", "c15"},
	"v": {"k", "n", "s"},
}

func spellings(tmpl string) (narrow, wide string) {
	narrow = wideMarker.ReplaceAllString(tmpl, "")
	wide = wideMarker.ReplaceAllStringFunc(tmpl, func(m string) string {
		var b strings.Builder
		for _, item := range strings.Split(m[2:len(m)-1], ",") {
			alias, table, _ := strings.Cut(item, "=")
			for _, c := range narrowColumns[table] {
				fmt.Fprintf(&b, ", %s.%s AS wide_%s_%s", alias, c, alias, c)
			}
		}
		return b.String()
	})
	return narrow, wide
}

// narrowDB builds w — 16 columns: c0 an indexed key, c1 the ascending
// row number (zone maps prune on it), the rest sparse, with c12 a small
// tag and c13 a wide-spread id that stays raw when sealed — and v, a
// small indexed table to join with. Strings and floats are computed in
// the queries' select lists (CASE … 's3' …, T.c13 / 2.0). w
// is published part-way through its load so that its first chunks are
// sealed (bit-packed) and its last ones raw, then loses scattered rows
// and one whole chunk to tombstones.
func narrowDB(t *testing.T, r *rand.Rand) *DB {
	t.Helper()
	db := NewDB()
	schema := make(Schema, 16)
	for i := range schema {
		schema[i] = Column{Name: fmt.Sprintf("c%d", i)}
	}
	w, err := db.CreateTable("w", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CreateIndex("c0"); err != nil {
		t.Fatal(err)
	}
	row := func(i int) Row {
		out := NullRow(16)
		out[0] = ID(int64(i % 97))
		out[1] = ID(int64(i))
		for c := 2; c < 16; c++ {
			if r.Intn(10) >= 3 {
				continue // sparse: most cells are NULL
			}
			switch c {
			case 12:
				out[c] = ID(int64(r.Intn(8)))
			case 13:
				out[c] = ID(int64(r.Intn(200)) << 40)
			default:
				out[c] = ID(int64(r.Intn(100)))
			}
		}
		return out
	}
	const sealed, total = 3000, 4600
	for i := 0; i < total; i++ {
		if i == sealed {
			w.Publish()
		}
		if err := w.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if r.Intn(20) == 0 || (i >= 1024 && i < 2048) {
			if err := w.DeleteRow(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := mustTable(t, db, "v", Schema{{Name: "k"}, {Name: "n"}, {Name: "s"}}, nil)
	if err := v.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := v.Insert(Row{ID(int64(r.Intn(120))), ID(int64(r.Intn(50))), ID(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestNarrowReadEquivalence(t *testing.T) {
	defer SetParallelism(0, 0)
	r := rand.New(rand.NewSource(13))
	db := narrowDB(t, r)

	// col picks a random sparse column; the picks of one query are distinct.
	var picked map[int]bool
	col := func() string {
		for {
			if c := 2 + r.Intn(14); !picked[c] {
				picked[c] = true
				return fmt.Sprintf("c%d", c)
			}
		}
	}
	// Each shape returns a template; trim says how many leading columns
	// the wide spelling shares with the narrow one (0 = all of them: the
	// marker sits in an inner select whose extra columns never surface).
	shapes := []struct {
		name string
		trim int
		gen  func() string
	}{
		{"index scan", 2, func() string {
			return fmt.Sprintf("SELECT T.%s AS a, T.%s AS b{*T=w} FROM w AS T WHERE T.c0 = %d AND (T.%s IS NOT NULL OR T.c12 = 3)",
				col(), col(), r.Intn(97), col())
		}},
		{"zone-skippable and residual scan", 2, func() string {
			lo := r.Intn(4000)
			return fmt.Sprintf("SELECT T.%s AS a, T.c1 AS b{*T=w} FROM w AS T WHERE T.c1 >= %d AND T.c1 < %d AND (T.%s < 50 OR T.%s IS NULL) AND T.%s IS NOT NULL",
				col(), lo, lo+r.Intn(1500), col(), col(), col())
		}},
		{"int literals against computed floats and strings", 0, func() string {
			return fmt.Sprintf("WITH s AS (SELECT T.c13 AS a, T.c12 AS b{*T=w} FROM w AS T WHERE T.c1 < %d) "+
				"SELECT s.a AS a, s.b AS b FROM s AS s WHERE s.a / 2.0 > %d AND CASE WHEN s.b = 3 THEN 's3' ELSE s.b END != 3", 1000+r.Intn(3000), r.Intn(60)<<39)
		}},
		{"unfiltered scan", 1, func() string {
			return fmt.Sprintf("SELECT T.%s AS a{*T=w} FROM w AS T", col())
		}},
		{"implicit join", 3, func() string {
			return fmt.Sprintf("SELECT A.%s AS a, B.n AS b, A.c1 AS c{*A=w,B=v} FROM w AS A, v AS B WHERE A.c0 = B.k AND A.c1 < %d AND B.n > %d",
				col(), 500+r.Intn(4000), r.Intn(40))
		}},
		{"index join from a CTE", 0, func() string {
			return fmt.Sprintf("WITH P AS (SELECT B.k AS k{*B=v} FROM v AS B WHERE B.n < %d), "+
				"J AS (SELECT p.k AS k, T.%s AS a, CASE WHEN T.%s = 7 THEN T.%s ELSE NULL END AS unused{*T=w} FROM P AS p, w AS T WHERE T.c0 = p.k AND (T.%s < 60 OR T.%s IS NULL)) "+
				"SELECT j.k AS k, j.a AS a FROM J AS j", 5+r.Intn(20), col(), col(), col(), col(), col())
		}},
		{"left join, hash", 3, func() string {
			return fmt.Sprintf("SELECT A.%s AS a, B.s AS b, A.c1 AS c{*A=w,B=v} FROM w AS A LEFT OUTER JOIN v AS B ON A.c0 = B.k AND B.n > %d WHERE A.c1 < %d",
				col(), r.Intn(40), 200+r.Intn(1500))
		}},
		{"left join, index", 3, func() string {
			return fmt.Sprintf("SELECT B.k AS a, A.%s AS b, A.c1 AS c{*A=w,B=v} FROM v AS B LEFT OUTER JOIN w AS A ON B.k = A.c0 AND A.%s IS NOT NULL",
				col(), col())
		}},
		{"filter over a CTE", 0, func() string {
			return fmt.Sprintf("WITH s AS (SELECT T.%s AS x, T.%s AS y{*T=w} FROM w AS T WHERE T.c1 < %d) SELECT s.x AS x, s.y AS y FROM s AS s WHERE s.y IS NOT NULL",
				col(), col(), 300+r.Intn(4000))
		}},
		{"union all", 2, func() string {
			return fmt.Sprintf("SELECT T.%s AS a, T.c1 AS b{*T=w} FROM w AS T WHERE T.c0 = %d UNION ALL SELECT T.%s AS a, T.c1 AS b{*T=w} FROM w AS T WHERE T.c1 >= %d AND T.%s IS NOT NULL",
				col(), r.Intn(97), col(), 3500+r.Intn(1000), col())
		}},
		{"distinct", 0, func() string {
			return fmt.Sprintf("WITH C AS (SELECT T.%s AS x, T.c12 AS y{*T=w} FROM w AS T WHERE T.c1 < %d) SELECT DISTINCT c.x AS x, c.y AS y FROM C AS c",
				col(), 500+r.Intn(4000))
		}},
		{"order by, limit, offset", 2, func() string {
			return fmt.Sprintf("SELECT T.c1 AS a, T.%s AS b{*T=w} FROM w AS T WHERE T.%s IS NOT NULL ORDER BY b DESC, a LIMIT %d OFFSET %d",
				col(), col(), 1+r.Intn(40), r.Intn(10))
		}},
		{"limit pushdown", 1, func() string {
			return fmt.Sprintf("SELECT T.%s AS a{*T=w} FROM w AS T WHERE T.c1 > %d LIMIT %d OFFSET %d", col(), r.Intn(3000), 1+r.Intn(30), r.Intn(5))
		}},
		// The cases below pin where a column is referenced from.
		{"only in ON", 1, func() string {
			return fmt.Sprintf("SELECT A.c1 AS a{*A=w,B=v} FROM w AS A LEFT OUTER JOIN v AS B ON A.%s = B.n WHERE A.c1 < 400", col())
		}},
		{"only in ORDER BY", 2, func() string {
			return fmt.Sprintf("SELECT T.c1 AS a, T.%s AS b{*T=w} FROM w AS T WHERE T.c1 < 900 ORDER BY b, a DESC", col())
		}},
		{"two aliases, disjoint columns", 2, func() string {
			return fmt.Sprintf("SELECT A.%s AS a, B.%s AS b{*A=w,B=w} FROM w AS A, w AS B WHERE A.c1 = B.c1 AND A.c1 < 700 AND B.%s IS NOT NULL", col(), col(), col())
		}},
	}

	run := func(sql string, workers int) []Row {
		t.Helper()
		SetParallelism(workers, 1)
		rs, err := query(db, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		return rs.Rows
	}
	for _, shape := range shapes {
		nonEmpty := false
		for iter := 0; iter < 8; iter++ {
			picked = map[int]bool{}
			narrow, wide := spellings(shape.gen())
			want := run(narrow, 1)
			nonEmpty = nonEmpty || len(want) > 0
			for _, workers := range []int{1, 4} {
				got := run(wide, workers)
				if shape.trim > 0 {
					for i := range got {
						got[i] = got[i][:shape.trim]
					}
				}
				if !sameRows(got, want) {
					t.Fatalf("%s, workers=%d: the wide spelling returned %d rows, the narrow one %d, or they differ\nnarrow: %s\nwide:   %s",
						shape.name, workers, len(got), len(want), narrow, wide)
				}
			}
			if got := run(narrow, 4); !sameRows(got, want) {
				t.Fatalf("%s: narrow spelling differs between 1 and 4 workers\n%s", shape.name, narrow)
			}
		}
		if !nonEmpty {
			t.Errorf("%s: every generated query came back empty; the shape tests nothing", shape.name)
		}
	}
}

// TestBoundQueryConcurrentExecutions: one parsed Query — what a plan
// cache holds — executed from many goroutines at once. The bound form
// it carries is read by all of them and written by none, which the race
// detector checks and the identical results confirm.
func TestBoundQueryConcurrentExecutions(t *testing.T) {
	db := narrowDB(t, rand.New(rand.NewSource(5)))
	for _, sql := range []string{
		"WITH P AS (SELECT B.k AS k FROM v AS B WHERE B.n < 25), " +
			"J AS (SELECT p.k AS k, T.c4 AS a, CASE WHEN T.c6 = 7 THEN T.c7 ELSE NULL END AS unused FROM P AS p, w AS T WHERE T.c0 = p.k AND (T.c5 < 60 OR T.c5 IS NULL)) " +
			"SELECT j.k AS k, j.a AS a FROM J AS j LEFT OUTER JOIN v AS S ON j.a = S.n ORDER BY k, a LIMIT 200",
		// A lateral item's bound form is shared too.
		"WITH P AS (SELECT B.k AS k, B.n AS n FROM v AS B WHERE B.n < 25), " +
			"J AS (SELECT p.k AS k, L.p AS p, L.v AS v FROM P AS p, w AS T, " + pairsOfW + " WHERE T.c0 = p.k AND L.p IS NOT NULL AND L.p != p.n) " +
			"SELECT j.k AS k, j.p AS p, j.v AS v FROM J AS j ORDER BY k, p LIMIT 200",
	} {
		q, err := ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Exec(q)
		if err != nil || len(want.Rows) == 0 {
			t.Fatalf("reference execution: %d rows, err %v", len(want.Rows), err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					got, err := db.Exec(q)
					if err != nil {
						t.Error(err)
						return
					}
					if !sameRows(got.Rows, want.Rows) {
						t.Errorf("concurrent execution returned %d rows that differ from the reference %d", len(got.Rows), len(want.Rows))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
