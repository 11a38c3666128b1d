package db2rdf

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"db2rdf/internal/rdf"
	"db2rdf/internal/wal"
)

// Durability fault-injection tests. The invariant under test (see
// DESIGN.md §9): whatever happens to the data directory — clean close,
// process kill, torn tail write, byte-level corruption of WAL or
// snapshot files — Open must succeed (or fail with a clean error for
// genuine configuration mismatch) and yield the byte-identical
// canonical Export of SOME previously published epoch: never a partial
// epoch, never a panic.

func durOpen(t *testing.T, dir string, every int) *Store {
	t.Helper()
	s, err := Open(Options{K: 2, DataDir: dir, SnapshotEvery: every})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

func exportStr(t *testing.T, s *Store) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.String()
}

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

// durTriples builds a dataset that exercises every storage shape under
// K=2: spills (entities with more predicates than columns), DS/RS
// multi-value lists (repeated subject+predicate), literals with
// language tags and datatypes, and blank nodes.
func durTriples(n int) []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := iri(fmt.Sprintf("s%d", i%7))
		ts = append(ts,
			rdf.NewTriple(s, iri(fmt.Sprintf("p%d", i%5)), rdf.NewInteger(int64(i))),
			rdf.NewTriple(s, iri("name"), rdf.NewLangLiteral(fmt.Sprintf("näme %d", i), "de")),
			rdf.NewTriple(iri(fmt.Sprintf("o%d", i)), iri("ref"), rdf.NewBlank(fmt.Sprintf("b%d", i%3))),
			rdf.NewTriple(s, iri("multi"), rdf.NewTypedLiteral(fmt.Sprintf("%d.5", i), "http://www.w3.org/2001/XMLSchema#decimal")),
		)
	}
	return ts
}

// TestDurableCloseReopen round-trips the store through snapshot files:
// close writes a final snapshot, reopen must restore the identical
// Export and stay fully writable across several generations.
func TestDurableCloseReopen(t *testing.T) {
	dir := t.TempDir()
	s := durOpen(t, dir, 0)
	if err := s.LoadTriples(durTriples(40)); err != nil {
		t.Fatal(err)
	}
	want := exportStr(t, s)
	if want == "" {
		t.Fatal("empty export")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := durOpen(t, dir, 0)
	if got := exportStr(t, s2); got != want {
		t.Fatalf("snapshot reopen export differs:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	// The reopened store must remain fully functional: query, insert,
	// delete, update.
	res, err := s2.Query(`SELECT ?o WHERE { <http://ex/s1> <http://ex/p1> ?o }`)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("query after reopen: %v (%d rows)", err, len(res.Rows))
	}
	if err := s2.Insert(rdf.NewTriple(iri("new"), iri("p"), rdf.NewLiteral("v"))); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Delete(rdf.NewTriple(iri("s1"), iri("name"), rdf.NewLangLiteral("näme 1", "de"))); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Update(`INSERT DATA { <http://ex/u> <http://ex/p> "upd" }`); err != nil {
		t.Fatal(err)
	}
	want2 := exportStr(t, s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := durOpen(t, dir, 0)
	defer s3.Close()
	if got := exportStr(t, s3); got != want2 {
		t.Fatal("second-generation reopen export differs")
	}
}

// TestWALOnlyCrashReopen simulates a process crash (no Close, so no
// snapshot file exists): recovery must rebuild the exact published
// state purely by replaying the WAL through the insert/delete
// machinery, across every write entry point.
func TestWALOnlyCrashReopen(t *testing.T) {
	dir := t.TempDir()
	s := durOpen(t, dir, 0)
	if err := s.LoadTriples(durTriples(25)); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(durTriples(40)[60:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(rdf.NewTriple(iri("x"), iri("y"), rdf.NewInteger(-7))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(rdf.NewTriple(iri("s2"), iri("p2"), rdf.NewInteger(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(`DELETE DATA { <http://ex/x> <http://ex/y> "-7"^^<http://www.w3.org/2001/XMLSchema#integer> } ; INSERT DATA { <http://ex/x> <http://ex/y> "z" }`); err != nil {
		t.Fatal(err)
	}
	want := exportStr(t, s)
	// No Close: the crash. Reopen reads the same directory.
	s2 := durOpen(t, dir, 0)
	defer s2.Close()
	if got := exportStr(t, s2); got != want {
		t.Fatalf("WAL-only recovery export differs (%d vs %d bytes)", len(got), len(want))
	}
	if ds := s2.Internal().DurabilityStats(); ds.ReplayedRecords == 0 {
		t.Fatal("expected replayed WAL records, got 0")
	}
}

// TestKillPointRecovery truncates the WAL at every byte offset of the
// tail batch (and strided offsets before it): recovery must land
// exactly on the epoch whose commit marker survives — epoch k or k+1
// around the cut, with the Export byte-identical to what was published
// at that epoch.
func TestKillPointRecovery(t *testing.T) {
	dir := t.TempDir()
	s := durOpen(t, dir, 0)
	// One publish per Insert: pubExports[i] is the export after i
	// publishes (index 0 = the empty store).
	pubExports := []string{exportStr(t, s)}
	for i := 0; i < 6; i++ {
		sub := iri(fmt.Sprintf("k%d", i%2)) // shared subjects: exercise spills+lists in replay
		if err := s.Insert(rdf.NewTriple(sub, iri(fmt.Sprintf("kp%d", i)), rdf.NewInteger(int64(i)))); err != nil {
			t.Fatal(err)
		}
		pubExports = append(pubExports, exportStr(t, s))
	}
	// Crash: no Close. Grab the raw segment.
	segPath := filepath.Join(dir, wal.SegmentName(1))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	batches, valid, _ := wal.ReadSegment(data)
	if len(batches) != 6 || valid != int64(len(data)) {
		t.Fatalf("segment shape: %d batches, valid %d/%d", len(batches), valid, len(data))
	}
	tailStart := int64(0)
	if len(batches) > 1 {
		tailStart = batches[len(batches)-2].End
	}
	checkCut := func(cut int64) {
		// Surviving batch count = commit markers wholly before the cut.
		n := 0
		for _, b := range batches {
			if b.End <= cut {
				n++
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, wal.SegmentName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Open(Options{K: 2, DataDir: cdir})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		defer rs.Close()
		if got := exportStr(t, rs); got != pubExports[n] {
			t.Fatalf("cut=%d: recovered export is not the epoch-%d state", cut, n+1)
		}
	}
	for cut := tailStart; cut <= int64(len(data)); cut++ {
		checkCut(cut)
	}
	for cut := int64(0); cut < tailStart; cut += 11 {
		checkCut(cut)
	}
}

// TestBitFlipFaultInjection flips bytes across every file in a data
// directory holding two snapshot generations plus WAL: recovery must
// never panic and must always export some previously published epoch
// (the older snapshot + retained WAL suffix covers a corrupt newest
// snapshot).
func TestBitFlipFaultInjection(t *testing.T) {
	dir := t.TempDir()
	published := map[string]bool{}
	s := durOpen(t, dir, 0)
	published[exportStr(t, s)] = true
	for i := 0; i < 10; i++ {
		if err := s.Insert(rdf.NewTriple(iri(fmt.Sprintf("f%d", i%3)), iri(fmt.Sprintf("fp%d", i)), rdf.NewInteger(int64(i)))); err != nil {
			t.Fatal(err)
		}
		published[exportStr(t, s)] = true
	}
	if err := s.Close(); err != nil { // snapshot generation 1
		t.Fatal(err)
	}
	s = durOpen(t, dir, 0)
	for i := 10; i < 16; i++ {
		if err := s.Insert(rdf.NewTriple(iri(fmt.Sprintf("f%d", i%3)), iri(fmt.Sprintf("fp%d", i)), rdf.NewInteger(int64(i)))); err != nil {
			t.Fatal(err)
		}
		published[exportStr(t, s)] = true
	}
	if err := s.Close(); err != nil { // snapshot generation 2
		t.Fatal(err)
	}

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".snap") {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("want 2 retained snapshots, have %d", snaps)
	}

	for _, f := range files {
		orig, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(orig); pos += 37 {
			fdir := t.TempDir()
			for _, g := range files { // copy the whole directory
				b, err := os.ReadFile(filepath.Join(dir, g.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if g.Name() == f.Name() {
					b = append([]byte(nil), b...)
					b[pos] ^= 0x55
				}
				if err := os.WriteFile(filepath.Join(fdir, g.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rs, err := Open(Options{K: 2, DataDir: fdir})
			if err != nil {
				t.Fatalf("%s pos=%d: open after flip: %v", f.Name(), pos, err)
			}
			got := exportStr(t, rs)
			rs.Close()
			if !published[got] {
				t.Fatalf("%s pos=%d: recovered export matches no published epoch (%d bytes)", f.Name(), pos, len(got))
			}
		}
	}
}

// TestSnapshotReclaimsDeletedState is the delete-reclamation
// regression: a delete-heavy store must snapshot to a SMALLER file
// than its full predecessor, and both the live store (via publish-time
// marker recomputation, see snapshot.go) and a recovery round-trip
// must drop the stale spill/multi markers deletes leave behind, while
// preserving the exact Export.
func TestSnapshotReclaimsDeletedState(t *testing.T) {
	dir := t.TempDir()
	s := durOpen(t, dir, 0)
	ts := durTriples(120)
	if err := s.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fullSize := newestSnapSize(t, dir)

	s = durOpen(t, dir, 0)
	if !s.Internal().Snapshot().AnyMultiValued(false) {
		t.Fatal("fixture should have multi-valued predicates")
	}
	// Delete everything: the compacting publish recomputes the
	// spill/multi markers exactly, so the live store already agrees
	// with what the snapshot round-trip below reconstructs.
	if n, err := s.Internal().DeleteTriples(ts); err != nil || n == 0 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	want := exportStr(t, s)
	if n := s.Internal().Snapshot().SpillCount(false); n != 0 {
		t.Fatalf("live spill count not recomputed at compacting publish: %d", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	smallSize := newestSnapSize(t, dir)
	if smallSize >= fullSize {
		t.Fatalf("delete-heavy snapshot did not shrink: %d >= %d", smallSize, fullSize)
	}

	s = durOpen(t, dir, 0)
	defer s.Close()
	if got := exportStr(t, s); got != want {
		t.Fatal("post-delete recovery export differs")
	}
	sn := s.Internal().Snapshot()
	if sn.AnyMultiValued(false) || sn.AnyMultiValued(true) {
		t.Fatal("recovery kept stale multi-value markers for an empty store")
	}
	if sn.SpillCount(false) != 0 || sn.SpillCount(true) != 0 {
		t.Fatal("recovery kept stale spill counts for an empty store")
	}
}

// TestBackgroundSnapshotRotation drives enough publishes through a
// SnapshotEvery store to trigger background snapshots, WAL rotation
// and retention, then verifies recovery and the retention bound.
func TestBackgroundSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	s := durOpen(t, dir, 2)
	for i := 0; i < 40; i++ {
		if err := s.Insert(rdf.NewTriple(iri(fmt.Sprintf("r%d", i%4)), iri(fmt.Sprintf("rp%d", i)), rdf.NewInteger(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	want := exportStr(t, s)
	ds := s.Internal().DurabilityStats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ds.WALAppends == 0 {
		t.Fatal("no WAL appends recorded")
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, segs := 0, 0
	for _, f := range files {
		switch {
		case strings.HasSuffix(f.Name(), ".snap"):
			snaps++
		case strings.HasSuffix(f.Name(), ".log"):
			segs++
		}
	}
	if snaps == 0 || snaps > 2 {
		t.Fatalf("retention: %d snapshots on disk", snaps)
	}
	if segs == 0 {
		t.Fatal("no WAL segment on disk")
	}
	s2 := durOpen(t, dir, 2)
	defer s2.Close()
	if got := exportStr(t, s2); got != want {
		t.Fatal("rotated-store recovery export differs")
	}
}

// TestDurableConfigMismatch: reopening a data directory with different
// K must fail loudly instead of silently misreading the layout.
func TestDurableConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	s := durOpen(t, dir, 0)
	if err := s.Insert(rdf.NewTriple(iri("a"), iri("b"), iri("c"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{K: 4, DataDir: dir}); err == nil {
		t.Fatal("K mismatch not rejected")
	}
}

func newestSnapSize(t *testing.T, dir string) int64 {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".snap") && f.Name() > name {
			name = f.Name()
		}
	}
	if name == "" {
		t.Fatal("no snapshot file")
	}
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// FuzzWALReplay feeds arbitrary bytes to Open as a WAL segment: it
// must never panic, and the store (recovered from whatever committed
// prefix survives) must stay fully usable.
func FuzzWALReplay(f *testing.F) {
	var seed []byte
	for i, tr := range durTriples(2) {
		seed = wal.AppendRecord(seed, wal.Record{Op: wal.OpInsert, S: tr.S, P: tr.P, O: tr.O})
		seed = wal.AppendRecord(seed, wal.Record{Op: wal.OpCommit, Epoch: uint64(2 + i)})
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{K: 2, DataDir: dir})
		if err != nil {
			return // clean refusal is acceptable; panics are not
		}
		if err := s.Insert(rdf.NewTriple(iri("fz"), iri("p"), rdf.NewLiteral("v"))); err != nil {
			t.Fatalf("store unusable after fuzz recovery: %v", err)
		}
		if _, err := s.Query(`SELECT ?o WHERE { <http://ex/fz> <http://ex/p> ?o }`); err != nil {
			t.Fatalf("query after fuzz recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after fuzz recovery: %v", err)
		}
	})
}
