package rel

import (
	"fmt"
	"testing"
)

// Tests for row deletion (tombstone.go): scan/index/Rows visibility,
// double-delete idempotence, compaction, Clear, and zone-map soundness
// when a chunk's min/max witnesses are tombstoned. The looped tests run
// once per chunk state; their subtests are named storage=0 (raw) and
// storage=1 (published, then mutated by the test).

// tombTable builds table t(id, v) with n rows and an index on id, in
// chunk state st; it also returns the snapshot st published, if any.
func tombTable(t *testing.T, st chunkState, n int) (db *DB, tbl *Table, snap *DB) {
	t.Helper()
	db = NewDB()
	tbl, err := db.CreateTable("t", Schema{{Name: "id"}, {Name: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Row{ID(int64(i)), ID(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl, st.prepare(db)
}

func TestDeleteRowVisibility(t *testing.T) {
	for _, st := range chunkStates {
		t.Run(fmt.Sprintf("storage=%d", st), func(t *testing.T) {
			db, tbl, snap := tombTable(t, st, 100)
			if err := tbl.DeleteRow(7); err != nil {
				t.Fatal(err)
			}
			if err := tbl.DeleteRow(7); err != nil { // idempotent
				t.Fatal(err)
			}
			if tbl.Len() != 100 || tbl.LiveLen() != 99 || tbl.DeadRows() != 1 {
				t.Fatalf("len=%d live=%d dead=%d", tbl.Len(), tbl.LiveLen(), tbl.DeadRows())
			}
			if err := tbl.DeleteRow(100); err == nil {
				t.Fatal("out-of-range delete succeeded")
			}
			// Index probe: the deleted id is gone, neighbours remain.
			if ids, _ := tbl.IndexLookup("id", 7); len(ids) != 0 {
				t.Fatalf("deleted row still indexed: %v", ids)
			}
			if ids, _ := tbl.IndexLookup("id", 8); len(ids) != 1 {
				t.Fatalf("live row lost from index")
			}
			// Full scan through the executor sees 99 rows.
			rs, err := query(db, "SELECT T.id AS id FROM t AS T")
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 99 {
				t.Fatalf("scan returned %d rows, want 99", len(rs.Rows))
			}
			// Predicate scan must not resurrect the dead row.
			rs, err = query(db, "SELECT T.id AS id FROM t AS T WHERE T.id = 7")
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 0 {
				t.Fatalf("dead row matched a filter: %v", rs.Rows)
			}
			if got := len(tbl.Rows()); got != 99 {
				t.Fatalf("Rows() returned %d, want 99", got)
			}
			// The snapshot published before the delete still sees it.
			if snap != nil {
				if rs := queryRows(t, snap, "SELECT T.id AS id FROM t AS T WHERE T.id = 7"); len(rs.Rows) != 1 {
					t.Fatalf("delete leaked into the published snapshot: %v", rs.Rows)
				}
			}
		})
	}
}

// TestDeleteZoneWitness tombstones exactly the rows carrying a chunk's
// zone-map min and max, then scans for the surviving values: the chunk
// must not be pruned (the widen-only bounds still cover live data) and
// the dead extremes must not match.
func TestDeleteZoneWitness(t *testing.T) {
	db, tbl, _ := tombTable(t, stateRaw, 0)
	// One chunk: v in [0, 990]; min witness row 0, max witness row 99.
	for i := 0; i < 100; i++ {
		if err := tbl.Insert(Row{ID(int64(i)), ID(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.DeleteRow(0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DeleteRow(99); err != nil {
		t.Fatal(err)
	}
	// The live maximum (980) sits inside the stale zone range; pruning
	// on the stale bounds must still admit the chunk.
	rs, err := query(db, "SELECT T.id AS id FROM t AS T WHERE T.v >= 980")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 98 {
		t.Fatalf("live max not found after witness delete: %v", rs.Rows)
	}
	// And the dead witnesses do not match even though the zone range
	// still includes them.
	for _, v := range []int{0, 990} {
		rs, err := query(db, fmt.Sprintf("SELECT T.id AS id FROM t AS T WHERE T.v = %d", v))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 0 {
			t.Fatalf("dead zone witness v=%d matched: %v", v, rs.Rows)
		}
	}
}

// TestDeleteCompaction crosses the per-chunk compaction threshold and
// checks the chunk is rewritten correctly at the next publish: dead
// cells cleared, zone map rebuilt over survivors, scans unchanged.
func TestDeleteCompaction(t *testing.T) {
	db, tbl, _ := tombTable(t, stateRaw, chunkRows)
	// Delete the top quarter of the chunk — the rows carrying the
	// largest v values — to push dirty past tombCompactDead.
	for i := chunkRows - tombCompactDead; i < chunkRows; i++ {
		if err := tbl.DeleteRow(i); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction runs at publish time, on the writer's private chunks.
	snap := tbl.Publish()
	if got := tbl.Compactions(); got != 1 {
		t.Fatalf("compactions=%d want 1", got)
	}
	live := chunkRows - tombCompactDead
	if snap.LiveLen() != live {
		t.Fatalf("snapshot live=%d want %d", snap.LiveLen(), live)
	}
	if tbl.LiveLen() != live {
		t.Fatalf("live=%d want %d", tbl.LiveLen(), live)
	}
	// After compaction the zone max shrank to the live maximum, so a
	// range above it prunes the chunk (and returns nothing).
	rs, err := query(db, fmt.Sprintf("SELECT T.id AS id FROM t AS T WHERE T.v >= %d", live*10))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("compacted chunk matched dead values: %d rows", len(rs.Rows))
	}
	ck := tbl.cols[1].chunkOf(0)
	if ck == nil || ck.max >= int64(live*10) {
		t.Fatalf("zone map not tightened by compaction: max=%v", ck.max)
	}
	// Cleared cells must not surface as NULLs in scans.
	rs, err = query(db, "SELECT T.id AS id FROM t AS T WHERE T.v IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("compacted cells leaked as NULL: %d rows", len(rs.Rows))
	}
	rs, err = query(db, "SELECT T.id AS id FROM t AS T")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != live {
		t.Fatalf("scan after compaction returned %d rows, want %d", len(rs.Rows), live)
	}
}

// TestDeleteFullChunkSkip kills a whole chunk and verifies the scan
// still returns the other chunks' rows.
func TestDeleteFullChunkSkip(t *testing.T) {
	db, tbl, _ := tombTable(t, stateRaw, 3*chunkRows)
	for i := chunkRows; i < 2*chunkRows; i++ {
		if err := tbl.DeleteRow(i); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := query(db, "SELECT T.id AS id FROM t AS T")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2*chunkRows {
		t.Fatalf("got %d rows, want %d", len(rs.Rows), 2*chunkRows)
	}
}

func TestTableClear(t *testing.T) {
	for _, st := range chunkStates {
		t.Run(fmt.Sprintf("storage=%d", st), func(t *testing.T) {
			db, tbl, _ := tombTable(t, st, 50)
			if err := tbl.DeleteRow(3); err != nil {
				t.Fatal(err)
			}
			tbl.Clear()
			if tbl.Len() != 0 || tbl.LiveLen() != 0 || tbl.DeadRows() != 0 {
				t.Fatalf("not empty after Clear: len=%d live=%d dead=%d", tbl.Len(), tbl.LiveLen(), tbl.DeadRows())
			}
			if ids, _ := tbl.IndexLookup("id", 5); len(ids) != 0 {
				t.Fatalf("index survived Clear: %v", ids)
			}
			// Table is reusable: insert and query again.
			if err := tbl.Insert(Row{ID(1), ID(2)}); err != nil {
				t.Fatal(err)
			}
			rs, err := query(db, "SELECT T.v AS v FROM t AS T WHERE T.id = 1")
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 1 || rs.Rows[0][0].I != 2 {
				t.Fatalf("reuse after Clear failed: %v", rs.Rows)
			}
		})
	}
}

// TestCreateIndexAfterDelete builds an index on a table that already
// has tombstones: dead rows must not enter the posting lists.
func TestCreateIndexAfterDelete(t *testing.T) {
	for _, st := range chunkStates {
		t.Run(fmt.Sprintf("storage=%d", st), func(t *testing.T) {
			_, tbl, _ := tombTable(t, st, 20)
			if err := tbl.DeleteRow(4); err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateIndex("v"); err != nil {
				t.Fatal(err)
			}
			if ids, ok := tbl.IndexLookup("v", 40); !ok || len(ids) != 0 {
				t.Fatalf("dead row indexed by late CreateIndex: %v", ids)
			}
			if ids, _ := tbl.IndexLookup("v", 50); len(ids) != 1 {
				t.Fatalf("live row missing from late index")
			}
		})
	}
}
