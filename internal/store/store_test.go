package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"db2rdf/internal/coloring"
	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
)

// fig1Triples is the paper's Figure 1(a) sample DBpedia data.
func fig1Triples() []rdf.Triple {
	iri := rdf.NewIRI
	lit := rdf.NewLiteral
	mk := func(s, p string, o rdf.Term) rdf.Triple {
		return rdf.NewTriple(iri(s), iri(p), o)
	}
	return []rdf.Triple{
		mk("Charles_Flint", "born", lit("1850")),
		mk("Charles_Flint", "died", lit("1934")),
		mk("Charles_Flint", "founder", iri("IBM")),
		mk("Larry_Page", "born", lit("1973")),
		mk("Larry_Page", "founder", iri("Google")),
		mk("Larry_Page", "board", iri("Google")),
		mk("Larry_Page", "home", lit("Palo Alto")),
		mk("Android", "developer", iri("Google")),
		mk("Android", "version", lit("4.1")),
		mk("Android", "kernel", iri("Linux")),
		mk("Android", "preceded", lit("4.0")),
		mk("Android", "graphics", iri("OpenGL")),
		mk("Google", "industry", lit("Software")),
		mk("Google", "industry", lit("Internet")),
		mk("Google", "employees", lit("54,604")),
		mk("Google", "HQ", lit("Mountain View")),
		mk("IBM", "industry", lit("Software")),
		mk("IBM", "industry", lit("Hardware")),
		mk("IBM", "industry", lit("Services")),
		mk("IBM", "employees", lit("433,362")),
		mk("IBM", "HQ", lit("Armonk")),
	}
}

func newTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadFig1(t *testing.T) {
	s := newTestStore(t, Options{K: 16})
	if err := s.LoadTriples(fig1Triples()); err != nil {
		t.Fatal(err)
	}
	// 5 subjects -> 5 DPH entity groups, no spills with k=8.
	if got := s.Snapshot().EntityCount(false); got != 5 {
		t.Fatalf("want 5 direct entities, got %d", got)
	}
	if s.Snapshot().SpillCount(false) != 0 {
		t.Fatalf("no spills expected with k=16, got %d", s.Snapshot().SpillCount(false))
	}
	// industry is multi-valued for Google and IBM: DS must hold
	// 2 (Google) + 3 (IBM) = 5 rows.
	ds := s.DB.Table("DS")
	if ds.Len() != 5 {
		t.Fatalf("DS rows = %d, want 5", ds.Len())
	}
	// founder on the reverse side: Google has founder Larry Page only;
	// but born (reverse) has two distinct subjects per year? No: each
	// year is a distinct object. Check reverse multi-value: industry
	// "Software" has two subjects (Google, IBM) -> RS gets 2 rows.
	rs := s.DB.Table("RS")
	if rs.Len() < 2 {
		t.Fatalf("RS rows = %d, want >= 2", rs.Len())
	}
}

func TestDuplicateTripleIdempotent(t *testing.T) {
	s := newTestStore(t, Options{K: 4})
	tr := rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o"))
	for i := 0; i < 3; i++ {
		if err := s.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	dph := s.DB.Table("DPH")
	if dph.Len() != 1 {
		t.Fatalf("DPH rows = %d, want 1", dph.Len())
	}
	ds := s.DB.Table("DS")
	if ds.Len() != 0 {
		t.Fatalf("duplicate insert must not create DS rows, got %d", ds.Len())
	}
}

func TestMultiValueConversion(t *testing.T) {
	s := newTestStore(t, Options{K: 4})
	subj := rdf.NewIRI("Google")
	pred := rdf.NewIRI("industry")
	for _, o := range []string{"Software", "Internet", "Cloud"} {
		if err := s.Insert(rdf.NewTriple(subj, pred, rdf.NewLiteral(o))); err != nil {
			t.Fatal(err)
		}
	}
	// One DPH row whose industry val is a lid; DS has 3 members.
	dph := s.DB.Table("DPH")
	if dph.Len() != 1 {
		t.Fatalf("DPH rows = %d, want 1", dph.Len())
	}
	ds := s.DB.Table("DS")
	if ds.Len() != 3 {
		t.Fatalf("DS rows = %d, want 3", ds.Len())
	}
	row := dph.RowAt(0)
	foundLid := false
	for i := 2; i < len(row); i += 2 {
		if v := row[i+1]; !v.IsNull() && dict.IsLid(v.I) {
			foundLid = true
		}
	}
	if !foundLid {
		t.Fatal("DPH val must hold a lid after multi-value conversion")
	}
	// Re-inserting an existing member is a no-op.
	if err := s.Insert(rdf.NewTriple(subj, pred, rdf.NewLiteral("Cloud"))); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 {
		t.Fatalf("duplicate member extended DS: %d", ds.Len())
	}
}

func TestSpills(t *testing.T) {
	// k=2 with a single-column mapping forces spills for an entity
	// with more than 2 predicates.
	m := &coloring.FuncMapping{M: 2, Fn: func(p string) []int {
		// Map predicates round-robin over both columns.
		return []int{int(p[len(p)-1]) % 2}
	}}
	s := newTestStore(t, Options{K: 2, Mapping: m})
	subj := rdf.NewIRI("e")
	for i := 0; i < 6; i++ {
		p := rdf.NewIRI(fmt.Sprintf("p%d", i))
		if err := s.Insert(rdf.NewTriple(subj, p, rdf.NewInteger(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Snapshot().SpillCount(false) == 0 {
		t.Fatal("expected spills")
	}
	dph := s.DB.Table("DPH")
	if dph.Len() < 3 {
		t.Fatalf("DPH rows = %d, want >= 3 for 6 preds over 2 columns", dph.Len())
	}
	// Every row of the spilled entity must carry spill=1.
	for i := 0; i < dph.Len(); i++ {
		if dph.RowAt(i)[1].I != 1 {
			t.Fatalf("row %d missing spill flag", i)
		}
	}
	// All 6 predicates participate in spills.
	if got := len(s.Snapshot().SpillPredicates(false)); got != 6 {
		t.Fatalf("spill predicates = %d, want 6", got)
	}
}

func TestStats(t *testing.T) {
	s := newTestStore(t, Options{K: 8})
	if err := s.LoadTriples(fig1Triples()); err != nil {
		t.Fatal(err)
	}
	v := s.StatsView()
	if v.TotalTriples() != 21 {
		t.Fatalf("total = %f", v.TotalTriples())
	}
	// 5 subjects, 21 triples -> 4.2 avg.
	if got := v.AvgPerSubject(); got != 4.2 {
		t.Fatalf("avg per subject = %f", got)
	}
	// Software appears as object twice.
	n, ok := v.ObjectCount(rdf.NewLiteral("Software"))
	if !ok || n != 2 {
		t.Fatalf("ObjectCount(Software) = %f, %v", n, ok)
	}
	// Unknown constants have exact count 0.
	n, ok = v.ObjectCount(rdf.NewLiteral("Nowhere"))
	if !ok || n != 0 {
		t.Fatalf("ObjectCount(unknown) = %f, %v", n, ok)
	}
	// Google holds four triples: two of them as an industry list.
	n, ok = v.SubjectCount(rdf.NewIRI("Google"))
	if !ok || n != 4 {
		t.Fatalf("SubjectCount(Google) = %f, %v", n, ok)
	}
}

func TestLoadNTriples(t *testing.T) {
	s := newTestStore(t, Options{K: 4})
	input := `<http://e/s1> <http://e/p> "v1" .
# comment
<http://e/s1> <http://e/q> <http://e/o> .
<http://e/s2> <http://e/p> "v2"@en .
`
	n, err := s.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loaded %d, want 3", n)
	}
	if s.Snapshot().EntityCount(false) != 2 {
		t.Fatalf("entities = %d", s.Snapshot().EntityCount(false))
	}
}

func TestBuildMappings(t *testing.T) {
	triples := fig1Triples()
	direct, reverse, dc, rc := BuildMappings(triples, 13, 13)
	if len(dc.Uncolored) != 0 {
		t.Fatalf("fig1 must be fully colorable: %v", dc.Uncolored)
	}
	// Figure 4: 13 predicates need only 5 colors.
	if dc.NumColors > 5 {
		t.Errorf("direct coloring used %d colors, paper needs 5", dc.NumColors)
	}
	if direct.NumColumns() != 13 || reverse.NumColumns() != 13 {
		t.Fatal("budget mismatch")
	}
	_ = rc
	// Colored store: loading with coloring must not spill.
	s, err := New(Options{K: 13, Mapping: direct, ReverseMapping: reverse})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().SpillCount(false) != 0 {
		t.Fatalf("colored load must not spill, got %d", s.Snapshot().SpillCount(false))
	}
}

func TestLookupID(t *testing.T) {
	s := newTestStore(t, Options{K: 4})
	tr := rdf.NewTriple(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o"))
	if err := s.Insert(tr); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Snapshot().LookupID(rdf.NewIRI("s")); !ok {
		t.Fatal("s must be in dictionary")
	}
	if _, ok := s.Snapshot().LookupID(rdf.NewIRI("absent")); ok {
		t.Fatal("absent must not be in dictionary")
	}
}

func TestTopConstants(t *testing.T) {
	s := newTestStore(t, Options{K: 8})
	if err := s.LoadTriples(fig1Triples()); err != nil {
		t.Fatal(err)
	}
	top := s.Snapshot().TopConstants(3)
	if len(top) != 3 {
		t.Fatalf("want 3 top constants, got %v", top)
	}
	if top[0] != "<IBM>: 5" {
		t.Fatalf("top constant = %q, want IBM with 5 triples", top[0])
	}
}

// TestRandomLoadRetrievable: every inserted triple is findable through
// the raw relations (DPH row with the predicate, or its DS list), for
// random data and tight column budgets that force spills and
// multi-values.
func TestRandomLoadRetrievable(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		k := 2 + r.Intn(6)
		s := newTestStore(t, Options{K: k, KReverse: k})
		var triples []rdf.Triple
		seen := map[rdf.Triple]bool{}
		for i := 0; i < 60; i++ {
			tr := rdf.NewTriple(
				rdf.NewIRI(fmt.Sprintf("s%d", r.Intn(6))),
				rdf.NewIRI(fmt.Sprintf("p%d", r.Intn(10))),
				rdf.NewIRI(fmt.Sprintf("o%d", r.Intn(8))),
			)
			if seen[tr] {
				continue
			}
			seen[tr] = true
			triples = append(triples, tr)
			if err := s.Insert(tr); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range triples {
			if !tripleStored(t, s, tr) {
				t.Fatalf("trial %d (k=%d): triple %v not retrievable", trial, k, tr)
			}
		}
		// Statistics agree with the load.
		if got := s.StatsView().TotalTriples(); got != float64(len(triples)) {
			t.Fatalf("stats total = %f, want %d", got, len(triples))
		}
	}
}

// tripleStored scans the DPH rows of the subject for (pred, obj),
// resolving DS lists.
func tripleStored(t *testing.T, s *Store, tr rdf.Triple) bool {
	t.Helper()
	sid, ok := s.Snapshot().LookupID(tr.S)
	if !ok {
		return false
	}
	pid, _ := s.Snapshot().LookupID(tr.P)
	oid, _ := s.Snapshot().LookupID(tr.O)
	dph := s.DB.Table("DPH")
	ds := s.DB.Table("DS")
	for i := 0; i < dph.Len(); i++ {
		row := dph.RowAt(i)
		if row[0].I != sid {
			continue
		}
		for c := 0; c < s.Snapshot().K(false); c++ {
			pv, vv := row[2+2*c], row[2+2*c+1]
			if pv.IsNull() || pv.I != pid {
				continue
			}
			if vv.I == oid {
				return true
			}
			if dict.IsLid(vv.I) {
				for j := 0; j < ds.Len(); j++ {
					dr := ds.RowAt(j)
					if dr[0].I == vv.I && dr[1].I == oid {
						return true
					}
				}
			}
		}
	}
	return false
}

// TestMarkerStableWriteKeepsCapturedMaps pins that a write which sets
// no new spill or multi-value marker leaves the snapshot-captured
// marker maps in place — a list append, a second list for an already
// multi-valued predicate, a spill of already spill-involved predicates
// — so the next snapshot shares them and keeps its plan epoch. Only a
// new marker clones them, leaving the captured copies unwritten.
func TestMarkerStableWriteKeepsCapturedMaps(t *testing.T) {
	s := newTestStore(t, Options{K: 1}) // a second predicate always spills
	tr := func(s, p, o string) rdf.Triple { return rdf.NewTriple(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewIRI(o)) }
	if err := s.LoadTriples([]rdf.Triple{
		tr("e0", "p", "v0"), tr("e0", "p", "v1"), // p multi-valued
		tr("e1", "q", "w0"), tr("e1", "r", "w1"), // q and r spill-involved
	}); err != nil {
		t.Fatal(err)
	}
	held := s.Snapshot()
	same := func(a, b map[int64]bool) bool {
		return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
	}
	for _, w := range [][]rdf.Triple{
		{tr("e0", "p", "v2")},                      // list append
		{tr("e2", "p", "v3"), tr("e2", "p", "v4")}, // a new list of p
		{tr("e3", "q", "x0"), tr("e3", "r", "x1")}, // a new spill of q and r
	} {
		if err := s.LoadTriples(w); err != nil {
			t.Fatal(err)
		}
		if !same(s.direct.multiPreds, held.side(false).multi) || !same(s.direct.spillPreds, held.side(false).spill) ||
			!same(s.reverse.multiPreds, held.side(true).multi) || !same(s.reverse.spillPreds, held.side(true).spill) {
			t.Fatalf("%v cloned the captured marker maps", w)
		}
		sn := s.Snapshot()
		if sn.Epoch() == held.Epoch() || sn.PlanEpoch() != held.PlanEpoch() {
			t.Fatalf("%v: epoch %d -> %d, plan epoch %d -> %d",
				w, held.Epoch(), sn.Epoch(), held.PlanEpoch(), sn.PlanEpoch())
		}
	}

	// A new multi-valued predicate clones before writing.
	if err := s.LoadTriples([]rdf.Triple{tr("e4", "u", "z0"), tr("e4", "u", "z1")}); err != nil {
		t.Fatal(err)
	}
	uid, _ := s.Snapshot().LookupID(rdf.NewIRI("u"))
	if heldMulti := held.side(false).multi; same(s.direct.multiPreds, heldMulti) || heldMulti[uid] || !s.direct.multiPreds[uid] {
		t.Fatal("a new marker must be set on a private clone of the captured map")
	}
	if sn := s.Snapshot(); sn.PlanEpoch() != held.PlanEpoch()+1 {
		t.Fatalf("a new marker: plan epoch %d -> %d, want +1", held.PlanEpoch(), sn.PlanEpoch())
	}
}
