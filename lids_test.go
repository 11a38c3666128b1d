package db2rdf_test

import (
	"fmt"
	"slices"
	"testing"

	"db2rdf"
	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
)

// TestListIdsAfterReopen: each side numbers its own DS/RS lists — the
// direct side's list ids are even offsets from dict.LidBase, the
// reverse side's odd ones — and a reopened store mints on above every
// list id it recovered, whether it reopened from a snapshot or from the
// WAL alone. New lists on both sides get fresh ids of their side's
// parity, ids never collide with term ids, and every answer matches the
// brute-force oracle.
func TestListIdsAfterReopen(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	// Batch b gives two subjects a two-member <multi> list (DS) and
	// makes a shared object hub<b> the target of three <ref>s (RS).
	batch := func(b int) []rdf.Triple {
		var ts []rdf.Triple
		for i := 0; i < 2; i++ {
			s := ex(fmt.Sprintf("s%d_%d", b, i))
			ts = append(ts,
				rdf.NewTriple(s, ex("multi"), rdf.NewInteger(int64(10*b+i))),
				rdf.NewTriple(s, ex("multi"), rdf.NewLiteral(fmt.Sprintf("m%d_%d", b, i))))
		}
		for i := 0; i < 3; i++ {
			ts = append(ts, rdf.NewTriple(ex(fmt.Sprintf("r%d_%d", b, i)), ex("ref"), ex(fmt.Sprintf("hub%d", b))))
		}
		return ts
	}
	queries := []string{
		`SELECT ?s ?o WHERE { ?s <http://ex/multi> ?o }`,
		`SELECT ?s ?h WHERE { ?s <http://ex/ref> ?h }`,
		`SELECT ?s WHERE { ?s <http://ex/ref> <http://ex/hub1> }`,
		`SELECT ?a ?b WHERE { ?a <http://ex/ref> ?h . ?b <http://ex/ref> ?h }`,
	}
	for _, snapshot := range []bool{true, false} {
		name := "WAL-only"
		if snapshot {
			name = "snapshot"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *db2rdf.Store {
				s, err := db2rdf.Open(db2rdf.Options{K: 2, DataDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := open()
			data := append(batch(0), batch(1)...)
			if err := s.LoadTriples(batch(0)); err != nil {
				t.Fatal(err)
			}
			for _, tr := range batch(1) {
				if err := s.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
			if snapshot {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} // else no Close: the crash, and reopen replays the WAL
			s = open()
			defer s.Close()
			if snapshot == (s.Internal().DurabilityStats().ReplayedRecords > 0) {
				t.Fatalf("reopen replayed %d WAL records", s.Internal().DurabilityStats().ReplayedRecords)
			}
			stored := storedLids(t, s)
			for _, b := range []int{2, 3} {
				if _, err := s.Update(insertData(batch(b))); err != nil {
					t.Fatal(err)
				}
				data = append(data, batch(b)...)
			}
			after := storedLids(t, s)
			for side, table := range []string{"DS", "RS"} {
				top := slices.Max(stored[side])
				var fresh int
				for _, lid := range after[side] {
					if slices.Contains(stored[side], lid) {
						continue
					}
					fresh++
					if lid <= top {
						t.Errorf("%s: new lid %d is not above the stored %d", table, lid, top)
					}
				}
				if want := []int{4, 2}[side]; fresh != want {
					t.Errorf("%s: %d new lists, want %d", table, fresh, want)
				}
			}
			for _, q := range queries {
				res, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := answerRows(res), bruteForceQuery(t, data, q); !slices.Equal(got, want) {
					t.Errorf("%s:\n got  %q\n want %q", q, got, want)
				}
			}
		})
	}
}

// storedLids returns the distinct list ids of DS and of RS, after
// checking that each is a lid of its side's parity (even offsets from
// dict.LidBase in DS, odd in RS) and above every term id.
func storedLids(t *testing.T, s *db2rdf.Store) [2][]int64 {
	t.Helper()
	db := s.Internal().Snapshot().DB()
	terms := int64(s.Internal().Dict.Len())
	var out [2][]int64
	for side, name := range []string{"DS", "RS"} {
		tab := db.Table(name)
		for i := 0; i < tab.Len(); i++ {
			c := tab.CellAt(i, 0)
			if c.IsNull() || slices.Contains(out[side], c.I) {
				continue
			}
			if !dict.IsLid(c.I) || c.I <= terms || (c.I-dict.LidBase)%2 != int64(side) {
				t.Fatalf("%s holds lid %d (LidBase%+d), not a lid of its side", name, c.I, c.I-dict.LidBase)
			}
			out[side] = append(out[side], c.I)
		}
	}
	return out
}
