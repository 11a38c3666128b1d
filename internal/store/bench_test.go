package store

import (
	"fmt"
	"testing"
	"time"

	"db2rdf/internal/rdf"
)

// BenchmarkInsertLongList inserts n subjects that share one rdf:type
// object, so the reverse side holds a single RS list with n members and
// every insert first asks whether its subject is already on that list.
// It reports ns/triple at n = 1k and 16k through Insert (one publish per
// triple), LoadTriples (the same sequential insert, one publish) and
// LoadTriplesParallel (the bulk loader). On the two loaders the 16k
// figure staying near the 1k one shows the membership test does not
// walk the list; Insert's figure also carries a publish per triple,
// whose cost grows with the number of indexed keys.
func BenchmarkInsertLongList(b *testing.B) {
	typ := rdf.NewIRI(rdf.RDFType)
	class := rdf.NewIRI("http://bench/Class")
	for _, n := range []int{1000, 16000} {
		ts := make([]rdf.Triple, n)
		for i := range ts {
			ts[i] = rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://bench/s%d", i)), typ, class)
		}
		loaders := []struct {
			name string
			load func(*Store) error
		}{
			{"Insert", func(s *Store) error {
				for _, t := range ts {
					if err := s.Insert(t); err != nil {
						return err
					}
				}
				return nil
			}},
			{"LoadTriples", func(s *Store) error { return s.LoadTriples(ts) }},
			{"LoadTriplesParallel", func(s *Store) error { return s.LoadTriplesParallel(ts, 0) }},
		}
		for _, l := range loaders {
			b.Run(fmt.Sprintf("%s/n=%d", l.name, n), func(b *testing.B) {
				var elapsed time.Duration
				for i := 0; i < b.N; i++ {
					s, err := New(Options{})
					if err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					if err := l.load(s); err != nil {
						b.Fatal(err)
					}
					elapsed += time.Since(start)
				}
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*n), "ns/triple")
			})
		}
	}
}
