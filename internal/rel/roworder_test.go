package rel

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// rowOrderForms are TestJoinKernelsAgree's join forms: each runs with
// the link plain and hidden in an expression, over r with and without
// an index on k, so the index, hash and nested-loop kernels all answer.
var rowOrderForms = []string{
	"SELECT l.a AS a, r.b AS b FROM l AS l, r AS r WHERE %s",
	"SELECT l.a AS a, r.b AS b FROM l AS l LEFT OUTER JOIN r AS r ON %s",
	"SELECT l.a AS a, r.b AS b FROM l AS l LEFT OUTER JOIN r AS r ON %s AND r.b < 4",
}

// rowOrderJoinDB is TestJoinKernelsAgree's pair of tables: 150 left rows
// and 400 right rows sharing part of their key range, every 11th left
// and 17th right key NULL.
func rowOrderJoinDB(t *testing.T, index bool) *DB {
	t.Helper()
	db := NewDB()
	var lrows, rrows []Row
	for i := 0; i < 150; i++ {
		k := ID(int64(i % 97))
		if i%11 == 0 {
			k = NullCell
		}
		lrows = append(lrows, Row{k, ID(int64(i))})
	}
	for i := 0; i < 400; i++ {
		k := ID(int64(40 + i%101))
		if i%17 == 0 {
			k = NullCell
		}
		rrows = append(rrows, Row{k, ID(int64(i % 23))})
	}
	mustTable(t, db, "l", Schema{{Name: "k"}, {Name: "a"}}, lrows)
	rt := mustTable(t, db, "r", Schema{{Name: "k"}, {Name: "b"}}, rrows)
	if index {
		if err := rt.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// renderIDs renders each row as its ids, NULL as "-", in order.
func renderIDs(rs *ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		cells := make([]string, len(r))
		for j, c := range r {
			cells[j] = "-"
			if !c.IsNull() {
				cells[j] = fmt.Sprint(c.I)
			}
		}
		out[i] = strings.Join(cells, " ")
	}
	return out
}

// TestRowOrderGolden pins the order, not just the set, of the rows every
// kernel emits: each kernelCorpus query, and each join form through the
// index, hash and nested-loop kernels, inner and outer, at one worker
// and at four. Both worker counts must render the recorded rows exactly;
// run with -update to rewrite testdata/roworder.golden.
func TestRowOrderGolden(t *testing.T) {
	defer SetParallelism(0, 0)
	var b strings.Builder
	section := func(db *DB, title, q string) {
		var rows [2][]string
		for i, workers := range []int{1, 4} {
			SetParallelism(workers, 1)
			rows[i] = renderIDs(queryRows(t, db, q))
		}
		if !reflect.DeepEqual(rows[0], rows[1]) {
			t.Errorf("%s: one worker and four disagree on rows or order", title)
		}
		fmt.Fprintf(&b, "== %s: %d rows\n-- %s\n", title, len(rows[0]), q)
		for _, r := range rows[0] {
			b.WriteString(r)
			b.WriteByte('\n')
		}
	}
	db, queries := kernelCorpus(t)
	for i, q := range queries {
		section(db, fmt.Sprintf("kernelCorpus %d", i), q)
	}
	for _, index := range []bool{true, false} {
		db := rowOrderJoinDB(t, index)
		for i, form := range rowOrderForms {
			for _, link := range []string{"l.k = r.k", "l.k + 0 = r.k"} {
				q := fmt.Sprintf(form, link)
				section(db, fmt.Sprintf("join form %d, index %v, %s", i, index, joinKernel(t, db, q)), q)
			}
		}
	}
	path := filepath.Join("testdata", "roworder.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	got := strings.Split(b.String(), "\n")
	for i, line := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != line {
			g := "<end>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("%s line %d: got %q, want %q", path, i+1, g, line)
		}
	}
	if w := strings.Count(string(want), "\n"); len(got) > w+1 {
		t.Fatalf("%s: got %d lines, want %d", path, len(got)-1, w)
	}
}
