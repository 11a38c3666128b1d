package db2rdf_test

// Concurrency and loader-equivalence tests for the store-level
// read/write lock discipline and the bulk loader. Run with
// -race (the repo's tier-1 command does) to make the lock checks real.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
)

// TestConcurrentInsertQueryExport drives writers and several kinds of
// readers at the same store simultaneously. Under -race this checks
// the whole query pipeline (including property-path closure
// materialization and Export) is safe against concurrent Inserts.
func TestConcurrentInsertQueryExport(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(gen.Micro(2000).Triples); err != nil {
		t.Fatal(err)
	}

	const writers, rounds = 2, 50
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		if err != nil {
			select {
			case errc <- err:
			default:
			}
		}
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				report(s.Insert(rdf.NewTriple(
					rdf.NewIRI(fmt.Sprintf("http://conc/s%d-%d", w, i)),
					rdf.NewIRI("http://conc/linked"),
					rdf.NewIRI(fmt.Sprintf("http://conc/s%d-%d", w, i+1)),
				)))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_, err := s.Query(`SELECT ?s ?o WHERE { ?s <http://conc/linked> ?o }`)
			report(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Property-path queries compute their closure pairs per
		// snapshot, and concurrent runs on one snapshot share them.
		for i := 0; i < rounds/5; i++ {
			_, err := s.Query(`SELECT ?s ?o WHERE { ?s <http://conc/linked>+ ?o }`)
			report(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/10; i++ {
			_, err := s.Export(&bytes.Buffer{})
			report(err)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every written triple must be visible afterwards.
	res, err := s.Query(`SELECT ?s ?o WHERE { ?s <http://conc/linked> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), writers*rounds; got != want {
		t.Fatalf("after concurrent writes: %d linked rows, want %d", got, want)
	}
}

// lubmText is LUBM(1) serialized as N-Triples.
func lubmText(t *testing.T, ds *gen.Dataset) []byte {
	t.Helper()
	var doc bytes.Buffer
	w := rdf.NewWriter(&doc)
	for _, tr := range ds.Triples {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

// TestLoadParallelMatchesSequential loads LUBM(1) as N-Triples text
// through the bulk loader and, as the reference, one Insert per triple,
// and requires byte-identical exports plus identical optimizer
// statistics.
func TestLoadParallelMatchesSequential(t *testing.T) {
	ds := gen.LUBM(1)
	bulk, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := bulk.LoadReader(bytes.NewReader(lubmText(t, ds)))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ds.Triples) {
		t.Fatalf("loaded %d triples, want %d", n, len(ds.Triples))
	}
	seq, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Triples {
		if err := seq.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}

	var seqOut, bulkOut bytes.Buffer
	if _, err := seq.Export(&seqOut); err != nil {
		t.Fatal(err)
	}
	if _, err := bulk.Export(&bulkOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqOut.Bytes(), bulkOut.Bytes()) {
		t.Fatalf("exports differ: inserted %d bytes, bulk-loaded %d bytes", seqOut.Len(), bulkOut.Len())
	}

	// Optimizer statistics must agree term by term.
	sv, pv := seq.Internal().StatsView(), bulk.Internal().StatsView()
	if sv.TotalTriples() != pv.TotalTriples() {
		t.Errorf("total: %v != %v", sv.TotalTriples(), pv.TotalTriples())
	}
	if sv.AvgPerSubject() != pv.AvgPerSubject() {
		t.Errorf("avg/subject: %v != %v", sv.AvgPerSubject(), pv.AvgPerSubject())
	}
	if sv.AvgPerObject() != pv.AvgPerObject() {
		t.Errorf("avg/object: %v != %v", sv.AvgPerObject(), pv.AvgPerObject())
	}
	terms := map[rdf.Term]bool{}
	for _, tr := range ds.Triples {
		terms[tr.S] = true
		terms[tr.P] = true
		terms[tr.O] = true
	}
	for term := range terms {
		if a, _ := sv.SubjectCount(term); a != mustCount(pv.SubjectCount(term)) {
			t.Errorf("subject count for %s differs", term)
		}
		if a, _ := sv.ObjectCount(term); a != mustCount(pv.ObjectCount(term)) {
			t.Errorf("object count for %s differs", term)
		}
	}
}

// TestLoadPathsAgree loads LUBM(1) into fresh stores through every
// insert entry point — N-Triples text through LoadReader, LoadTriples,
// the deprecated LoadTriplesParallel, and one SPARQL Update INSERT DATA
// request — and requires one result: the same table and dictionary
// bytes, a byte-identical export, and byte-identical SQL for every LUBM
// template. Every insert is one bulk load, which interns terms in input
// order and whose two placing goroutines each mint their own side's
// list ids, so nothing here may vary from run to run either; ci.sh runs
// it under -race -count=3.
func TestLoadPathsAgree(t *testing.T) {
	ds := gen.LUBM(1)
	text := lubmText(t, ds)
	loads := []struct {
		name string
		load func(*db2rdf.Store) error
	}{
		{"LoadReader", func(s *db2rdf.Store) error { _, err := s.LoadReader(bytes.NewReader(text)); return err }},
		{"LoadTriples", func(s *db2rdf.Store) error { return s.LoadTriples(ds.Triples) }},
		{"LoadTriplesParallel", func(s *db2rdf.Store) error { return s.LoadTriplesParallel(ds.Triples, 4) }},
		{"Update", func(s *db2rdf.Store) error {
			_, err := s.Update("INSERT DATA {\n" + string(text) + "}")
			return err
		}},
	}
	type outcome struct {
		tableBytes, dictBytes int64
		export                []byte
		sql                   map[string]string
	}
	var want outcome
	for i, l := range loads {
		s, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.load(s); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		got := outcome{tableBytes: s.TableBytes(), dictBytes: s.DictBytes(), sql: map[string]string{}}
		var out bytes.Buffer
		if _, err := s.Export(&out); err != nil {
			t.Fatal(err)
		}
		got.export = out.Bytes()
		for _, q := range gen.LUBMQueries() {
			e, err := s.Explain(q.SPARQL)
			if err != nil {
				t.Fatalf("%s: %s: %v", l.name, q.Name, err)
			}
			got.sql[q.Name] = e.SQL
		}
		if i == 0 {
			want = got
			continue
		}
		if got.tableBytes != want.tableBytes || got.dictBytes != want.dictBytes {
			t.Errorf("%s: %d table and %d dictionary bytes; %s: %d and %d",
				l.name, got.tableBytes, got.dictBytes, loads[0].name, want.tableBytes, want.dictBytes)
		}
		if !bytes.Equal(got.export, want.export) {
			t.Errorf("%s: export differs from %s's (%d vs %d bytes)", l.name, loads[0].name, len(got.export), len(want.export))
		}
		for name, sql := range got.sql {
			if sql != want.sql[name] {
				t.Errorf("%s: %s SQL differs from %s's:\n%s\nvs\n%s", l.name, name, loads[0].name, sql, want.sql[name])
			}
		}
	}
}

func mustCount(n float64, ok bool) float64 { return n }

// TestLoadParallelConcurrentReaders checks queries keep answering
// while a bulk load holds the write lock and places both sides on two
// goroutines: readers run on the published snapshot, so they must not
// race or deadlock.
func TestLoadParallelConcurrentReaders(t *testing.T) {
	ds := gen.Micro(5000)
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples[:100]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.LoadTriples(ds.Triples[100:]); err != nil {
			errc <- err
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.Query(ds.Queries[0].SPARQL); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestEmptyPattern checks the SPARQL unit-solution semantics for empty
// group patterns: SELECT over {} yields exactly one solution with all
// projected variables unbound, and ASK {} is true.
func TestEmptyPatternUnitSolution(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(rdf.NewTriple(rdf.NewIRI("http://a"), rdf.NewIRI("http://p"), rdf.NewLiteral("v"))); err != nil {
		t.Fatal(err)
	}

	res, err := s.Query(`SELECT * WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("SELECT * WHERE {}: %d solutions, want 1 (the unit solution)", len(res.Rows))
	}
	if len(res.Vars) != 0 {
		t.Fatalf("SELECT * WHERE {}: projected vars %v, want none", res.Vars)
	}

	res, err = s.Query(`SELECT ?x WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Bound {
		t.Fatalf("SELECT ?x WHERE {}: want 1 solution with ?x unbound, got %+v", res.Rows)
	}

	res, err = s.Query(`ASK {}`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsAsk || !res.Ask {
		t.Fatalf("ASK {}: want true, got %+v", res)
	}
}

// TestDescribeExactTerms checks DESCRIBE resolves resources whose
// serialization would not survive a round trip through the SPARQL
// grammar (blank nodes cannot be written as constants in a query).
func TestDescribeExactTerms(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := rdf.NewBlank("b1")
	for _, tr := range []rdf.Triple{
		rdf.NewTriple(b1, rdf.NewIRI("http://p"), rdf.NewLiteral("v")),
		rdf.NewTriple(b1, rdf.NewIRI("http://q"), rdf.NewIRI("http://o")),
		rdf.NewTriple(rdf.NewIRI("http://x"), rdf.NewIRI("http://r"), b1),
	} {
		if err := s.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.QueryGraph(`DESCRIBE ?v WHERE { ?v <http://q> <http://o> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("DESCRIBE of a blank node: %d triples, want 3: %v", len(got), got)
	}
}
