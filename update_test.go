package db2rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"db2rdf/internal/rdf"
)

func TestUpdateInsertData(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Update(`INSERT DATA {
		<Alice> <knows> <Bob> .
		<Alice> <knows> <Carol> .
		<Bob> <age> "42" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 3 || res.Deleted != 0 {
		t.Fatalf("got %+v, want 3 inserted", res)
	}
	rs := s.MustQuery(`SELECT ?o WHERE { <Alice> <knows> ?o }`)
	if got := bindings(rs, "o"); len(got) != 2 {
		t.Fatalf("knows = %v, want 2 objects", got)
	}
}

func TestUpdateDeleteData(t *testing.T) {
	s := fig1(t, Options{})
	res, err := s.Update(`DELETE DATA {
		<Larry_Page> <home> "Palo Alto" .
		<Nobody> <nothing> "absent" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("deleted = %d, want 1 (absent triple must not count)", res.Deleted)
	}
	rs := s.MustQuery(`SELECT ?o WHERE { <Larry_Page> <home> ?o }`)
	if len(rs.Rows) != 0 {
		t.Fatalf("home still present after delete: %v", bindings(rs, "o"))
	}
	// The rest of the entity's predicates survive.
	rs = s.MustQuery(`SELECT ?p ?o WHERE { <Larry_Page> ?p ?o }`)
	if len(rs.Rows) != 3 {
		t.Fatalf("Larry_Page has %d triples, want 3", len(rs.Rows))
	}
}

func TestUpdateDeleteMultiValued(t *testing.T) {
	s := fig1(t, Options{})
	// IBM industry is a 3-element multi-valued list; deleting one member
	// keeps the list, deleting the second collapses it to a direct value.
	for i, want := range []int{2, 1} {
		member := []string{"Hardware", "Services"}[i]
		if _, err := s.Update(fmt.Sprintf(`DELETE DATA { <IBM> <industry> %q }`, member)); err != nil {
			t.Fatal(err)
		}
		rs := s.MustQuery(`SELECT ?o WHERE { <IBM> <industry> ?o }`)
		if len(rs.Rows) != want {
			t.Fatalf("after deleting %s: %d members, want %d", member, len(rs.Rows), want)
		}
	}
	if got := bindings(s.MustQuery(`SELECT ?o WHERE { <IBM> <industry> ?o }`), "o"); len(got) != 1 || got[0] != "Software" {
		t.Fatalf("surviving member = %v, want Software", got)
	}
}

func TestUpdateModify(t *testing.T) {
	s := fig1(t, Options{})
	// Rename the founder predicate via DELETE/INSERT WHERE.
	res, err := s.Update(`
		DELETE { ?s <founder> ?o }
		INSERT { ?s <founded> ?o }
		WHERE { ?s <founder> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2 || res.Inserted != 2 {
		t.Fatalf("got %+v, want 2 deleted, 2 inserted", res)
	}
	if rs := s.MustQuery(`SELECT ?s WHERE { ?s <founder> ?o }`); len(rs.Rows) != 0 {
		t.Fatalf("founder triples survived the rename")
	}
	got := bindings(s.MustQuery(`SELECT ?s WHERE { ?s <founded> ?o }`), "s")
	if len(got) != 2 {
		t.Fatalf("founded = %v, want 2 subjects", got)
	}
}

func TestUpdateDeleteWhereShorthand(t *testing.T) {
	s := fig1(t, Options{})
	res, err := s.Update(`DELETE WHERE { <Android> ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 5 {
		t.Fatalf("deleted = %d, want all 5 Android triples", res.Deleted)
	}
	if rs := s.MustQuery(`SELECT ?p WHERE { <Android> ?p ?o }`); len(rs.Rows) != 0 {
		t.Fatalf("Android triples survived DELETE WHERE")
	}
}

func TestUpdateInsertWhereEmptyPattern(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// WHERE {} yields one unit solution, so a ground template fires once.
	res, err := s.Update(`INSERT { <a> <b> <c> } WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 {
		t.Fatalf("inserted = %d, want 1", res.Inserted)
	}
}

func TestUpdateClear(t *testing.T) {
	s := fig1(t, Options{})
	res, err := s.Update(`CLEAR ALL`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 22 {
		t.Fatalf("cleared %d triples, want 22", res.Deleted)
	}
	if rs := s.MustQuery(`SELECT ?s WHERE { ?s ?p ?o }`); len(rs.Rows) != 0 {
		t.Fatalf("store not empty after CLEAR")
	}
	// The store stays usable: reload and query.
	if _, err := s.Update(`INSERT DATA { <x> <y> <z> }`); err != nil {
		t.Fatal(err)
	}
	if rs := s.MustQuery(`SELECT ?s WHERE { ?s <y> <z> }`); len(rs.Rows) != 1 {
		t.Fatalf("insert after CLEAR not visible")
	}
}

func TestUpdateOperationSequence(t *testing.T) {
	// Later operations see the effects of earlier ones. In the second
	// request, on a store with two column pairs, a later WHERE clause
	// also translates against the multi-value and spill markers an
	// earlier operation set: ex:p turns multi-valued with "2", and
	// ex:q1..q3 spill ex:a's row.
	for _, c := range []struct {
		name              string
		opts              Options
		update            string
		inserted, deleted int
		pred              string              // the predicate the checks read
		want              map[string][]string // subject -> its sorted objects
	}{
		{
			name: "default",
			update: `
		PREFIX ex: <http://example.org/>
		INSERT DATA { ex:a ex:p "1" } ;
		INSERT { ex:a ex:q ?o } WHERE { ex:a ex:p ?o } ;
		DELETE DATA { ex:a ex:p "1" } ;
	`,
			inserted: 2, deleted: 1, pred: "q",
			want: map[string][]string{"a": {"1"}},
		},
		{
			name: "markers set mid-request",
			opts: Options{K: 2, KReverse: 2},
			update: `
		PREFIX ex: <http://example.org/>
		INSERT DATA { ex:a ex:p "1" } ;
		INSERT { ex:b ex:r ?o } WHERE { ex:a ex:p ?o } ;
		INSERT DATA { ex:a ex:p "2" . ex:a ex:q1 "x" . ex:a ex:q2 "y" . ex:a ex:q3 "z" } ;
		INSERT { ex:c ex:r ?o } WHERE { ex:a ex:p ?o } ;
		DELETE WHERE { ex:a ex:q3 ?z } ;
		INSERT { ex:d ex:r ?o } WHERE { ex:a ?p ?o }
	`,
			inserted: 12, deleted: 1, pred: "r",
			want: map[string][]string{"b": {"1"}, "c": {"1", "2"}, "d": {"1", "2", "x", "y"}},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Update(c.update)
			if err != nil {
				t.Fatal(err)
			}
			if res.Inserted != c.inserted || res.Deleted != c.deleted {
				t.Fatalf("got %+v, want %d inserted / %d deleted", res, c.inserted, c.deleted)
			}
			for subj, want := range c.want {
				rs := s.MustQuery(fmt.Sprintf(`PREFIX ex: <http://example.org/> SELECT ?o WHERE { ex:%s ex:%s ?o }`, subj, c.pred))
				got := bindings(rs, "o")
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ex:%s ex:%s = %v, want %v", subj, c.pred, got, want)
				}
			}
		})
	}
}

// TestUpdateNoOpKeepsPlanCache asserts that updates which change
// nothing — duplicate inserts, deletes of absent triples, CLEAR of an
// already-empty store — do not advance the epoch, and that the plan
// cache follows the plan epoch: an effective update that changes no
// marker keeps the cached plan, which then answers with the update
// applied, and one that adds a marker stales it.
func TestUpdateNoOpKeepsPlanCache(t *testing.T) {
	s := fig1(t, Options{})
	const q = `SELECT ?o WHERE { <Google> <industry> ?o }`
	s.MustQuery(q) // compile (miss)
	s.MustQuery(q) // hit
	hits0, misses0 := s.PlanCacheStats()
	if hits0 == 0 {
		t.Fatalf("warm-up query did not hit the plan cache")
	}
	epoch0 := s.Internal().Snapshot().Epoch()

	noops := []string{
		`INSERT DATA { <Google> <industry> "Software" }`, // duplicate triple
		`DELETE DATA { <Google> <industry> "Steel" }`,    // absent triple
		`DELETE DATA { <NoSuchEntity> <p> "x" }`,         // absent entity
		`DELETE { ?s <noSuchPred> ?o } WHERE { ?s <noSuchPred> ?o }`,
	}
	for _, u := range noops {
		res, err := s.Update(u)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		if res.Inserted != 0 || res.Deleted != 0 {
			t.Fatalf("%s: reported changes %+v, want none", u, res)
		}
		if e := s.Internal().Snapshot().Epoch(); e != epoch0 {
			t.Fatalf("%s: no-op update bumped the epoch %d -> %d", u, epoch0, e)
		}
		s.MustQuery(q)
		if _, misses := s.PlanCacheStats(); misses != misses0 {
			t.Fatalf("%s: plan cache missed after a no-op update", u)
		}
	}

	// A real change that sets no marker keeps the plan, and the cached
	// plan answers with the change applied.
	if _, err := s.Update(`DELETE DATA { <Google> <industry> "Internet" }`); err != nil {
		t.Fatal(err)
	}
	if s.Internal().Snapshot().Epoch() == epoch0 {
		t.Fatal("effective update did not advance the epoch")
	}
	expl, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !expl.PlanCached {
		t.Fatal("a marker-stable update staled the cached plan")
	}
	rs := s.MustQuery(q)
	if got := bindings(rs, "o"); len(got) != 1 || got[0] != "Software" {
		t.Fatalf("after delete: %v, want [Software]", got)
	}
	if _, misses := s.PlanCacheStats(); misses != misses0 {
		t.Fatalf("query after a marker-stable update missed the plan cache")
	}

	// A second HQ makes <HQ> multi-valued: a new marker stales the plan.
	if _, err := s.Update(`INSERT DATA { <Google> <HQ> "Dublin" }`); err != nil {
		t.Fatal(err)
	}
	if expl, err = s.Explain(q); err != nil {
		t.Fatal(err)
	}
	if expl.PlanCached {
		t.Fatal("an update that adds a marker must stale the cached plan")
	}
	rs = s.MustQuery(q)
	if got := bindings(rs, "o"); len(got) != 1 || got[0] != "Software" {
		t.Fatalf("after marker insert: %v, want [Software]", got)
	}
	if _, misses := s.PlanCacheStats(); misses != misses0+1 {
		t.Fatalf("query after a marker update: misses %d, want %d", misses, misses0+1)
	}
	// And CLEAR on the now-nonempty store bumps; on an empty store not.
	s2, _ := Open(Options{})
	e0 := s2.Internal().Snapshot().Epoch()
	if _, err := s2.Update(`CLEAR DEFAULT`); err != nil {
		t.Fatal(err)
	}
	if e := s2.Internal().Snapshot().Epoch(); e != e0 {
		t.Fatalf("CLEAR of empty store bumped epoch %d -> %d", e0, e)
	}
}

func TestUpdateErrorsAndStoreUsable(t *testing.T) {
	s := fig1(t, Options{})
	bad := []string{
		``,
		`SELECT ?s WHERE { ?s ?p ?o }`,
		`INSERT DATA { ?s <p> <o> }`,  // variable in ground block
		`DELETE DATA { _:b <p> <o> }`, // blank node in delete data
		`DELETE { _:b <p> ?o } WHERE { ?s <p> ?o }`, // blank in delete template
		`CLEAR NAMED`,
		`CLEAR GRAPH <g>`,
		`WITH <g> DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }`,
		`INSERT DATA { <a> <b> <c> } garbage`,
		`DELETE WHERE { ?s <p> ?o FILTER(?o > 1) }`, // non-plain pattern
	}
	for _, u := range bad {
		if _, err := s.Update(u); err == nil {
			t.Errorf("Update(%q) succeeded, want error", u)
		}
	}
	// Store unchanged and fully usable after every failed update.
	rs := s.MustQuery(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if len(rs.Rows) != 22 {
		t.Fatalf("store has %d triples after failed updates, want 22", len(rs.Rows))
	}
}

func TestUpdateMetrics(t *testing.T) {
	s := fig1(t, Options{})
	if _, err := s.Update(`DELETE DATA { <Google> <HQ> "Mountain View" }`); err != nil {
		t.Fatal(err)
	}
	_, _ = s.Update(`CLEAR NAMED`) // error
	snap := s.Metrics().Snapshot()
	if snap.UpdatesServed != 2 || snap.UpdateErrors != 1 || snap.DeletedTriples != 1 {
		t.Fatalf("snapshot = served %d, errors %d, deleted %d; want 2/1/1",
			snap.UpdatesServed, snap.UpdateErrors, snap.DeletedTriples)
	}
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"db2rdf_updates_total 2", "db2rdf_deleted_triples_total 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// exportString canonically serializes a store.
func exportString(t *testing.T, s *Store) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestUpdateInterleavingEquivalence drives a randomized interleaving of
// inserts and deletes and checks the surviving state is byte-identical
// (canonical export) to a store built from only the surviving triples.
// This exercises multi-value list growth/collapse, row tombstoning and
// re-insertion after delete in one sweep.
func TestUpdateInterleavingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	universe := make([]rdf.Triple, 0, 240)
	for e := 0; e < 12; e++ {
		for p := 0; p < 5; p++ {
			for v := 0; v < 4; v++ {
				universe = append(universe, rdf.NewTriple(
					rdf.NewIRI(fmt.Sprintf("e%d", e)),
					rdf.NewIRI(fmt.Sprintf("p%d", p)),
					rdf.NewLiteral(fmt.Sprintf("v%d", v)),
				))
			}
		}
	}

	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	alive := map[rdf.Triple]bool{}
	ntFor := func(tr rdf.Triple) string {
		return fmt.Sprintf("<%s> <%s> %q", tr.S.Value, tr.P.Value, tr.O.Value)
	}
	for step := 0; step < 600; step++ {
		tr := universe[rng.Intn(len(universe))]
		if rng.Intn(3) == 0 { // delete twice as rarely as insert
			res, err := s.Update(`DELETE DATA { ` + ntFor(tr) + ` }`)
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			if want := alive[tr]; (res.Deleted == 1) != want {
				t.Fatalf("step %d: delete reported %d, alive=%v", step, res.Deleted, want)
			}
			delete(alive, tr)
		} else {
			res, err := s.Update(`INSERT DATA { ` + ntFor(tr) + ` }`)
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if want := !alive[tr]; (res.Inserted == 1) != want {
				t.Fatalf("step %d: insert reported %d, fresh=%v", step, res.Inserted, want)
			}
			alive[tr] = true
		}
	}

	survivors := make([]rdf.Triple, 0, len(alive))
	for tr := range alive {
		survivors = append(survivors, tr)
	}
	ref, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadTriples(survivors); err != nil {
		t.Fatal(err)
	}
	got, want := exportString(t, s), exportString(t, ref)
	if got != want {
		t.Fatalf("export diverges after interleaving:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	// Statistics agree with the survivor count too.
	if n := s.Internal().StatsView().TotalTriples(); int(n) != len(survivors) {
		t.Fatalf("stats report %v triples, want %d", n, len(survivors))
	}
}

// TestUpdateConcurrentReaders runs readers against a store while a bulk
// DELETE executes. Every read must observe either the full pre-delete
// state or the full post-delete state (the update holds the write lock
// end to end), never a partially applied delta.
func TestUpdateConcurrentReaders(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ts []rdf.Triple
	const n = 400
	for i := 0; i < n; i++ {
		ts = append(ts, rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("s%d", i)), rdf.NewIRI("p"), rdf.NewLiteral(fmt.Sprintf("%d", i))))
	}
	if err := s.LoadTriples(ts); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT ?s ?o WHERE { ?s <p> ?o }`
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 30; i++ {
				rs, err := s.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if got := len(rs.Rows); got != n && got != n/2 {
					errs <- fmt.Errorf("reader saw %d rows, want %d or %d (torn snapshot)", got, n, n/2)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		// Delete every even-numbered subject in one update.
		var b strings.Builder
		b.WriteString("DELETE DATA {\n")
		for i := 0; i < n; i += 2 {
			fmt.Fprintf(&b, "<s%d> <p> \"%d\" .\n", i, i)
		}
		b.WriteString("}")
		res, err := s.Update(b.String())
		if err != nil {
			errs <- err
			return
		}
		if res.Deleted != n/2 {
			errs <- fmt.Errorf("bulk delete removed %d, want %d", res.Deleted, n/2)
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if rs := s.MustQuery(q); len(rs.Rows) != n/2 {
		t.Fatalf("final state has %d rows, want %d", len(rs.Rows), n/2)
	}
}

// TestDatatypeFunction covers SPARQL 1.1 §17.4.2.7 across the three
// literal shapes: plain -> xsd:string, language-tagged ->
// rdf:langString, typed -> the declared datatype.
func TestDatatypeFunction(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	if err := s.LoadTriples([]rdf.Triple{
		rdf.NewTriple(iri("a"), iri("plain"), rdf.NewLiteral("x")),
		rdf.NewTriple(iri("a"), iri("tagged"), rdf.NewLangLiteral("x", "en")),
		rdf.NewTriple(iri("a"), iri("typed"), rdf.NewTypedLiteral("5", rdf.XSDInteger)),
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ pred, dt string }{
		{"plain", rdf.XSDString},
		{"tagged", rdf.RDFLangString},
		{"typed", rdf.XSDInteger},
	}
	for _, c := range cases {
		q := fmt.Sprintf(`SELECT ?o WHERE { <a> <%s> ?o FILTER(datatype(?o) = <%s>) }`, c.pred, c.dt)
		if rs := s.MustQuery(q); len(rs.Rows) != 1 {
			t.Errorf("datatype(%s literal) != <%s> (got %d rows)", c.pred, c.dt, len(rs.Rows))
		}
		// And it matches nothing else: a wrong datatype filters the row out.
		wrong := fmt.Sprintf(`SELECT ?o WHERE { <a> <%s> ?o FILTER(datatype(?o) = <http://example.org/no>) }`, c.pred)
		if rs := s.MustQuery(wrong); len(rs.Rows) != 0 {
			t.Errorf("datatype(%s literal) matched a wrong IRI", c.pred)
		}
	}
}
