package db2rdf

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"db2rdf/internal/rdf"
)

// TestClosureSnapshotMemoConcurrent: eight readers holding one snapshot
// run a path query and an inference query while a writer publishes
// newer snapshots that add subClassOf and path edges. The readers share
// the held snapshot's closure relations, and every answer equals the
// serial answer on that snapshot's data.
func TestClosureSnapshotMemoConcurrent(t *testing.T) {
	iri := rdf.NewIRI
	sub := iri(rdfsSubClassOf)
	typ := iri(rdf.RDFType)
	linked := iri("http://c/linked")
	class := func(i int) rdf.Term { return iri(fmt.Sprintf("http://c/C%d", i)) }
	var data []rdf.Triple
	for i := 0; i < 30; i++ {
		data = append(data, rdf.NewTriple(iri(fmt.Sprintf("http://c/e%d", i)), linked, iri(fmt.Sprintf("http://c/e%d", i+1))))
		data = append(data, rdf.NewTriple(iri(fmt.Sprintf("http://c/i%d", i)), typ, class(i%6)))
	}
	for i := 0; i < 5; i++ {
		data = append(data, rdf.NewTriple(class(i), sub, class(i+1)))
	}
	queries := []string{
		`SELECT ?b WHERE { <http://c/e0> <http://c/linked>+ ?b }`,
		`SELECT ?x WHERE { ?x <` + rdf.RDFType + `> <http://c/C3> }`,
		`SELECT ?x ?c WHERE { ?x <` + rdf.RDFType + `> ?c }`,
	}
	render := func(res *Results) string {
		rows := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			var cells []string
			for _, b := range row {
				cells = append(cells, b.String())
			}
			rows[i] = strings.Join(cells, " ")
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	open := func() *Store {
		s, err := Open(Options{Inference: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTriples(data); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := map[string]string{}
	ref := open()
	for _, q := range queries {
		serial[q] = render(ref.MustQuery(q))
	}

	s := open()
	held := s.inner.Snapshot()
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 30; ; i++ {
			if err := s.LoadTriples([]rdf.Triple{
				rdf.NewTriple(iri(fmt.Sprintf("http://c/e%d", i)), linked, iri(fmt.Sprintf("http://c/e%d", i+1))),
				rdf.NewTriple(iri(fmt.Sprintf("http://c/D%d", i)), sub, class(i%6)),
				rdf.NewTriple(iri(fmt.Sprintf("http://c/j%d", i)), typ, iri(fmt.Sprintf("http://c/D%d", i))),
			}); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	errs := make(chan error, 8)
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for round := 0; round < 5; round++ {
				for i := range queries {
					q := queries[(i+g)%len(queries)]
					res, err := s.queryOn(context.Background(), held, q)
					if err != nil {
						errs <- err
						return
					}
					if got := render(res); got != serial[q] {
						errs <- fmt.Errorf("reader %d round %d: %s on the held snapshot:\n%s\nwant:\n%s", g, round, q, got, serial[q])
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.inner.Snapshot() == held {
		t.Fatal("the writer published nothing while the readers ran")
	}
	// The latest snapshot computes its own pairs: the chain grew.
	if res := s.MustQuery(queries[0]); len(res.Rows) <= 30 {
		t.Fatalf("latest snapshot: %d rows for the path query, want more than 30", len(res.Rows))
	}
}
