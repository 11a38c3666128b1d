package db2rdf_test

// TestStorageEquivalence is the insert-path oracle test. The same random
// datasets go in one Insert per triple, through the bulk loader
// (LoadTriples), as a top-up — half the data bulk-loaded, then all of
// it, so the loader meets existing entities, lists, spill rows and
// already-stored triples — as the same top-up by two INSERT DATA
// requests, and through WAL replay of a load, a delete and an update
// into a reopened store. Every path is one bulk load per write. All
// stores must export identical graphs, count
// each distinct triple once, and answer random BGPs exactly as the
// brute-force matcher does, with morsel parallelism forced off and on.
// Every write publishes, so the queries read sealed chunks. The benchmark corpus is refereed against
// the triple-store baseline by
// TestAllWorkloadQueriesAgreeWithTripleStore. ci.sh runs this under
// -race next to the parallel on/off gate.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

func TestStorageEquivalence(t *testing.T) {
	defer rel.SetParallelism(0, 0)
	vars := []string{"a", "b", "c", "d"}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		data := randomDataset(r)
		// Small K forces spill rows and multi-value lists through every
		// path.
		k := 2 + r.Intn(6)
		loaders := []struct {
			name string
			load func(*db2rdf.Store) error
			dir  string // a data directory: the load's store is dropped unclosed and reopened
		}{
			{"insert", func(s *db2rdf.Store) error {
				for _, tr := range data {
					if err := s.Insert(tr); err != nil {
						return err
					}
				}
				return nil
			}, ""},
			{"bulk", func(s *db2rdf.Store) error { return s.LoadTriples(data) }, ""},
			{"top-up", func(s *db2rdf.Store) error {
				if err := s.LoadTriples(data[:len(data)/2]); err != nil {
					return err
				}
				return s.LoadTriples(data)
			}, ""},
			{"update", func(s *db2rdf.Store) error {
				if _, err := s.Update(insertData(data[:len(data)/2])); err != nil {
					return err
				}
				_, err := s.Update(insertData(data))
				return err
			}, ""},
			{"WAL replay", func(s *db2rdf.Store) error {
				if err := s.LoadTriples(data[:len(data)/2]); err != nil {
					return err
				}
				if _, err := s.Delete(data[0]); err != nil {
					return err
				}
				_, err := s.Update(insertData(data))
				return err
			}, t.TempDir()},
		}
		stores := make([]*db2rdf.Store, len(loaders))
		exports := make([][]byte, len(loaders))
		for i, l := range loaders {
			opts := db2rdf.Options{K: k, DataDir: l.dir}
			s, err := db2rdf.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.load(s); err != nil {
				t.Fatalf("trial %d: %s load: %v", trial, l.name, err)
			}
			if l.dir != "" {
				if s, err = db2rdf.Open(opts); err != nil {
					t.Fatalf("trial %d: %s reopen: %v", trial, l.name, err)
				}
			}
			var buf bytes.Buffer
			if _, err := s.Export(&buf); err != nil {
				t.Fatal(err)
			}
			if got := s.Internal().StatsView().TotalTriples(); got != float64(len(data)) {
				t.Fatalf("trial %d (K=%d): %s load counts %v triples, want %d", trial, k, l.name, got, len(data))
			}
			stores[i], exports[i] = s, buf.Bytes()
		}
		for i := 1; i < len(loaders); i++ {
			if !bytes.Equal(exports[0], exports[i]) {
				t.Fatalf("trial %d (K=%d): %s and %s loads export different graphs:\n%s\nvs\n%s",
					trial, k, loaders[0].name, loaders[i].name, exports[0], exports[i])
			}
		}
		for j := 0; j < 6; j++ {
			pats, query := randomBGP(r)
			want := canonical(bruteForce(data, pats, vars))
			for i, s := range stores {
				for _, workers := range []int{1, 4} {
					rel.SetParallelism(workers, 1)
					res, err := s.Query(query)
					rel.SetParallelism(0, 0)
					where := fmt.Sprintf("trial %d (K=%d), %s load, workers=%d", trial, k, loaders[i].name, workers)
					if err != nil {
						t.Fatalf("%s: %v\n%s", where, err, query)
					}
					if got := canonical(renderStore(res)); !sameCanonical(got, want) {
						t.Fatalf("%s:\n got %v\nwant %v\n%s", where, got, want, query)
					}
				}
			}
		}
	}
}

// insertData is an INSERT DATA request for ts.
func insertData(ts []rdf.Triple) string {
	var b strings.Builder
	b.WriteString("INSERT DATA {\n")
	for _, tr := range ts {
		b.WriteString(tr.String() + "\n")
	}
	b.WriteString("}")
	return b.String()
}
