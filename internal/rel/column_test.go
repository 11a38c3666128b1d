package rel

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// Tests for the chunked column storage (column.go, vecscan.go):
// round-trip against a plain-rows model across randomized mutation
// sequences, packed insert/delete transitions, the int-only write
// boundary, zone-map pruning correctness against Go predicates, the
// cached column-name lookup, the float-probe regression, and governance
// semantics of the vectorized scan. Every oracle is a model kept in
// test code; chunk-state coverage comes from running the same checks on
// raw (never published) and published tables.

// chunkState is the state of a table's chunks when a test mutates or
// reads it. Production has exactly two: raw, the writer-private form
// of a table that has never published (temp tables, a writer's fresh
// chunks), and published, where Publish has sealed every chunk and the
// writer's later mutations clone the chunks they touch back into raw
// form under a new generation.
type chunkState int

const (
	stateRaw chunkState = iota
	statePublished
)

var chunkStates = []chunkState{stateRaw, statePublished}

func (s chunkState) String() string {
	if s == stateRaw {
		return "raw"
	}
	return "published"
}

// prepare brings db's tables into state s and returns the snapshot
// published on the way (nil for raw), so tests can check it stays
// untouched by the mutations that follow.
func (s chunkState) prepare(db *DB) *DB {
	if s == statePublished {
		return db.Publish()
	}
	return nil
}

// randValue draws a cell for column j of TestColumnarRoundTrip's
// table: about a third are NULL; column 0 stays in a narrow range (it
// bit-packs when sealed), column 1 spans the whole int64 range (sealing
// keeps it raw), column 2 is mostly NULL.
func randValue(r *rand.Rand, j int) Cell {
	if r.Intn(10) < 3 || (j == 2 && r.Intn(4) > 0) {
		return NullCell
	}
	switch j {
	case 0:
		return ID(int64(r.Intn(2000) - 1000))
	case 1:
		return ID(r.Int63() - r.Int63())
	default:
		return ID(int64(r.Intn(64)))
	}
}

// logicalBytes is EstimateBytes' cost model evaluated over plain rows:
// an 8-byte header per row, 8 bytes per id and one bit per NULL.
func logicalBytes(rows []Row) int64 {
	var total, nulls int64
	for _, r := range rows {
		total += 8
		for _, v := range r {
			if v.IsNull() {
				nulls++
			} else {
				total += 8
			}
		}
	}
	return total + (nulls+7)/8
}

// cloneRows deep-copies a model so later mutations leave it intact.
func cloneRows(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = append(Row(nil), r...)
	}
	return out
}

// checkModel requires tbl to hold exactly the rows of want, through
// every read path, and EstimateBytes to match the model's logical size.
func checkModel(t *testing.T, tbl *Table, want []Row, what string) {
	t.Helper()
	if tbl.Len() != len(want) {
		t.Fatalf("%s: Len %d, model %d", what, tbl.Len(), len(want))
	}
	for i, w := range want {
		if got := tbl.RowAt(i); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: RowAt(%d): %v, model %v", what, i, got, w)
		}
		for j := range w {
			if got := tbl.CellAt(i, j); !reflect.DeepEqual(got, w[j]) {
				t.Fatalf("%s: CellAt(%d,%d): %v, model %v", what, i, j, got, w[j])
			}
		}
	}
	if !sameRows(tbl.Rows(), want) {
		t.Fatalf("%s: Rows() diverges from the model", what)
	}
	if got, w := tbl.EstimateBytes(), logicalBytes(want); got != w {
		t.Fatalf("%s: EstimateBytes %d, model %d", what, got, w)
	}
}

// TestColumnarRoundTrip drives randomized appends (each landing at the
// index AppendRow returns) and cell updates through a table and a
// plain-rows model and requires identical logical content after every
// phase — including NULL↔value transitions that shift the packed
// vectors, packed and wide-spread (raw when sealed) columns, and writes
// into chunks a Publish has sealed (the published snapshot must keep its
// contents throughout).
func TestColumnarRoundTrip(t *testing.T) {
	schema := Schema{{Name: "narrow"}, {Name: "wide"}, {Name: "sparse"}}
	tbl := NewTable("c", schema)
	var model []Row
	r := rand.New(rand.NewSource(42))
	mkRow := func() Row {
		out := NullRow(len(schema))
		for j := range schema {
			out[j] = randValue(r, j)
		}
		return out
	}
	// Appends crossing several chunk boundaries.
	for i := 0; i < 2600; i++ {
		rw := mkRow()
		if err := tbl.Insert(rw); err != nil {
			t.Fatal(err)
		}
		model = append(model, rw)
	}
	checkModel(t, tbl, model, "after appends")

	for i := 0; i < 1500; i++ {
		rw := mkRow()
		id, err := tbl.AppendRow(rw)
		if err != nil {
			t.Fatal(err)
		}
		if id != len(model) {
			t.Fatalf("AppendRow index %d, want %d", id, len(model))
		}
		model = append(model, rw)
	}
	checkModel(t, tbl, model, "after AppendRow")

	snap, frozen := tbl.Publish(), cloneRows(model)
	checkModel(t, snap, frozen, "sealed snapshot")

	for n := 0; n < 3000; n++ {
		i, j := r.Intn(len(model)), r.Intn(len(schema))
		v := randValue(r, j)
		if err := tbl.SetCell(i, j, v); err != nil {
			t.Fatal(err)
		}
		model[i][j] = v
	}
	checkModel(t, tbl, model, "after SetCell churn")

	// Appends into the sealed partial tail chunk.
	for i := 0; i < 300; i++ {
		rw := mkRow()
		if err := tbl.Insert(rw); err != nil {
			t.Fatal(err)
		}
		model = append(model, rw)
	}
	checkModel(t, tbl, model, "after appends past publish")
	checkModel(t, snap, frozen, "snapshot after writer churn")
}

// TestSetCellOutOfRange pins the error contract.
func TestSetCellOutOfRange(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "a"}})
	if err := tbl.Insert(Row{ID(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetCell(1, 0, ID(2)); err == nil {
		t.Fatal("row out of range must error")
	}
	if err := tbl.SetCell(0, 1, ID(2)); err == nil {
		t.Fatal("column out of range must error")
	}
}

// TestTableColumnIndexCached: the per-table name cache must agree with
// the linear Schema scan, case-insensitively.
func TestTableColumnIndexCached(t *testing.T) {
	schema := Schema{{Name: "Entry"}, {Name: "spill"}, {Name: "Pred0"}}
	tbl := NewTable("t", schema)
	for _, name := range []string{"entry", "ENTRY", "Entry", "spill", "pred0", "PRED0", "nosuch"} {
		if got, want := tbl.ColumnIndex(name), schema.ColumnIndex(name); got != want {
			t.Fatalf("ColumnIndex(%q) = %d, Schema gives %d", name, got, want)
		}
	}
}

// TestFloatIndexRegression: an index scan must find what a full scan
// finds. An index lookup takes an id. In SQL, `col = <constant>` uses
// the index only when the constant is an int; any other constant is
// decided by the residual predicate (1.0 finds the 1s, 2.5 and '1'
// find nothing), so the same query over the same rows without the
// index gives the same answer. The index is built over raw chunks and
// over sealed ones.
func TestFloatIndexRegression(t *testing.T) {
	for _, st := range chunkStates {
		rows := []Row{{ID(1)}, {ID(1)}, {ID(2)}, {NullCell}}
		db, plain := NewDB(), NewDB()
		ti := mustTable(t, db, "n", Schema{{Name: "k"}}, rows)
		mustTable(t, plain, "n", Schema{{Name: "k"}}, rows)
		st.prepare(db)
		st.prepare(plain)
		if err := ti.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		for id, want := range map[int64]int{1: 2, 2: 1, 3: 0, 0: 0} {
			ids, ok := ti.IndexLookup("k", id)
			if !ok {
				t.Fatalf("%v: index vanished", st)
			}
			if len(ids) != want {
				t.Fatalf("%v: lookup(%d) = %v, want %d ids", st, id, ids, want)
			}
		}

		// End-to-end: the indexed scan path must agree with a full scan.
		for q, want := range map[string]int{
			"SELECT n.k AS k FROM n AS n WHERE n.k = 1":   2,
			"SELECT n.k AS k FROM n AS n WHERE n.k = 1.0": 2,
			"SELECT n.k AS k FROM n AS n WHERE n.k = 2.5": 0,
			"SELECT n.k AS k FROM n AS n WHERE n.k = '1'": 0,
		} {
			for _, d := range []*DB{db, plain} {
				rs, err := query(d, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(rs.Rows) != want {
					t.Fatalf("%v: %q (indexed %v): want %d rows, got %v", st, q, d == db, want, rs.Rows)
				}
			}
		}
	}
}

// zoneRows generates the 8192 rows of zoneDB's table: v is clustered
// (ascending, so zone maps prune aggressively), u is shuffled (no
// pruning), s is a small tag, n is NULL on odd rows.
func zoneRows() []Row {
	r := rand.New(rand.NewSource(3))
	perm := r.Perm(8192)
	rows := make([]Row, 8192)
	for i := range rows {
		nv := ID(int64(i))
		if i%2 == 1 {
			nv = NullCell
		}
		rows[i] = Row{ID(int64(i)), ID(int64(perm[i])), ID(int64(i % 7)), nv}
	}
	return rows
}

// zoneDB builds a DB holding zoneRows as table z(v, u, s, n).
func zoneDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("z", Schema{{Name: "v"}, {Name: "u"}, {Name: "s"}, {Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range zoneRows() {
		if err := tbl.Insert(rw); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestVectorizedScanEquivalence runs scan-shaped queries — equality,
// ranges, inequality, null tests, residual (non-int literal and
// arithmetic) predicates, and mixes — each paired with its WHERE clause as a Go predicate over
// zoneRows. The expected rows (in row-id order) must come back from
// raw chunks and from sealed ones (FoR bit-packing, shared dense
// bitmaps), under sequential and parallel execution.
func TestVectorizedScanEquivalence(t *testing.T) {
	defer SetParallelism(0, 0)
	const v, u, s, n = 0, 1, 2, 3
	cases := []struct {
		q    string
		cols []int          // the SELECT list, as columns of z
		keep func(Row) bool // the WHERE clause
	}{
		{"SELECT z.v AS v FROM z AS z WHERE z.v = 5000", []int{v}, func(r Row) bool { return r[v].I == 5000 }},
		{"SELECT z.v AS v FROM z AS z WHERE z.v = 100000", []int{v}, func(r Row) bool { return false }},                                           // zone-skips every chunk
		{"SELECT z.v AS v FROM z AS z WHERE z.v < 100", []int{v}, func(r Row) bool { return r[v].I < 100 }},                                       // prunes all but chunk 0
		{"SELECT z.v AS v FROM z AS z WHERE z.v >= 8100", []int{v}, func(r Row) bool { return r[v].I >= 8100 }},                                   // prunes all but the tail
		{"SELECT z.v AS v FROM z AS z WHERE z.v != 0", []int{v}, func(r Row) bool { return r[v].I != 0 }},                                         // no pruning possible
		{"SELECT z.v AS v FROM z AS z WHERE 2048 <= z.v AND z.v <= 2050", []int{v}, func(r Row) bool { return 2048 <= r[v].I && r[v].I <= 2050 }}, // literal on the left
		{"SELECT z.u AS u FROM z AS z WHERE z.u = 5000", []int{u}, func(r Row) bool { return r[u].I == 5000 }},                                    // shuffled: no chunk pruned
		{"SELECT z.v AS v FROM z AS z WHERE z.n IS NULL AND z.v < 64", []int{v}, func(r Row) bool { return r[n].IsNull() && r[v].I < 64 }},
		{"SELECT z.v AS v FROM z AS z WHERE z.n IS NOT NULL AND z.v > 8000", []int{v}, func(r Row) bool { return !r[n].IsNull() && r[v].I > 8000 }},
		{"SELECT z.v AS v FROM z AS z WHERE z.v < 300 AND z.s = 3.0", []int{v}, func(r Row) bool { return r[v].I < 300 && r[s].I == 3 }}, // residual: float literal
		{"SELECT z.v AS v FROM z AS z WHERE z.v < 200 AND z.s < 'a'", []int{v}, func(r Row) bool { return r[v].I < 200 }},                // residual: numbers order below strings
		{"SELECT z.v AS v FROM z AS z WHERE z.v > 8000 AND z.s = 'tag3'", []int{v}, func(r Row) bool { return false }},                   // residual: an id never equals a string
		{"SELECT z.s AS s FROM z AS z WHERE z.s = 5 AND z.u < 40", []int{s}, func(r Row) bool { return r[s].I == 5 && r[u].I < 40 }},
		{"SELECT z.v AS v, z.u AS u FROM z AS z", []int{v, u}, func(r Row) bool { return true }},               // unfiltered dense gather
		{"SELECT z.v AS v FROM z AS z WHERE z.v + 0 = 77", []int{v}, func(r Row) bool { return r[v].I == 77 }}, // non-vectorizable arithmetic
	}
	rows := zoneRows()
	raw, sealed := zoneDB(t), zoneDB(t).Publish()
	for _, c := range cases {
		var want []Row
		for _, r := range rows {
			if c.keep(r) {
				out := make(Row, len(c.cols))
				for i, col := range c.cols {
					out[i] = r[col]
				}
				want = append(want, out)
			}
		}
		for _, workers := range []int{1, 4} {
			SetParallelism(workers, 1)
			for _, db := range []struct {
				name string
				db   *DB
			}{{"raw", raw}, {"sealed", sealed}} {
				rs, err := query(db.db, c.q)
				if err != nil {
					t.Fatalf("%s %q: %v", db.name, c.q, err)
				}
				if !sameRows(rs.Rows, want) {
					t.Fatalf("workers=%d %q: %s chunks return %d rows, want %d", workers, c.q, db.name, len(rs.Rows), len(want))
				}
			}
			SetParallelism(0, 0)
		}
	}
}

// TestVecScanBudgetChargesSelectedRows: a highly selective scan must
// charge only the rows it selects against the row budget — never the
// rows its filter drops — while a scan that actually produces many rows
// must still trip.
func TestVecScanBudgetChargesSelectedRows(t *testing.T) {
	db := zoneDB(t)
	q, err := ParseQuery("SELECT z.v AS v FROM z AS z WHERE z.v < 10")
	if err != nil {
		t.Fatal(err)
	}
	// 10 selected rows scan + 10 projected ≤ 50, even though the table
	// holds 8192 rows across 8 chunks, all of which the residual
	// predicate z.v < 10 reads.
	if _, err := db.ExecContext(context.Background(), q, Limits{MaxRows: 50}); err != nil {
		t.Fatalf("budget must ignore the rows the filter drops: %v", err)
	}
	wide, err := ParseQuery("SELECT z.v AS v FROM z AS z WHERE z.v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(context.Background(), wide, Limits{MaxRows: 50}); err == nil {
		t.Fatal("a scan emitting 8192 rows must trip a 50-row budget")
	}
}

// TestVecScanFaultInjection: the vectorized scan must keep honoring
// CkFilter checkpoints (cancellation inside the chunk loop).
func TestVecScanFaultInjection(t *testing.T) {
	db := zoneDB(t)
	q, err := ParseQuery("SELECT z.v AS v FROM z AS z WHERE z.v != -1")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		SetParallelism(workers, 1)
		InjectFault(CkFilter, FaultCancel, 1)
		_, execErr := db.ExecContext(context.Background(), q, Limits{})
		fired := FaultFired()
		ClearFault()
		SetParallelism(0, 0)
		if execErr == nil || !fired {
			t.Fatalf("workers=%d: vectorized scan skipped the CkFilter checkpoint (err=%v fired=%v)", workers, execErr, fired)
		}
	}
}
