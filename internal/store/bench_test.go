package store

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
)

// BenchmarkInsertLongList inserts n subjects that share one rdf:type
// object, so the reverse side holds a single RS list with n members and
// every insert first asks whether its subject is already on that list.
// It reports ns/triple at n = 1k and 16k through Insert (a one-triple
// bulk load and one publish per triple) and LoadTriples (one bulk load,
// one publish). On the loader
// the 16k figure staying near the 1k one shows the membership test does
// not walk the list. Insert's figure also carries a publish per triple:
// sealing the indexes costs the write's delta (size-tiered, see
// rel/cowmap.go), but the first append to the RS list's posting list
// in each generation still clones it, so Insert's 16k figure grows
// with the list.
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

// BenchmarkUpdateBatch replays the repository benchmark's write mix on
// a loaded LUBM store: an update inserts one batch of 20 fresh triples
// (4 subjects of 5 properties) and publishes, and every third update
// instead deletes the oldest live batch and publishes. It reports the
// p50, p90 and p99 latency of one update at LUBM(25) and LUBM(100);
// p90 staying close across the 4x scale shows a publish costs its
// delta, not the store. Use a fixed count for stable tails:
//
//	go test -run '^$' -bench BenchmarkUpdateBatch -benchtime 600x ./internal/store/
func BenchmarkUpdateBatch(b *testing.B) {
	for _, u := range []int{25, 100} {
		ds := gen.LUBM(u)
		b.Run(fmt.Sprintf("lubm=%d", u), func(b *testing.B) {
			s, err := New(Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.LoadTriples(ds.Triples); err != nil {
				b.Fatal(err)
			}
			lat := make([]time.Duration, 0, b.N)
			var live [][]rdf.Triple
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%3 == 2 && len(live) > 0 {
					start := time.Now()
					if _, err := s.DeleteTriples(live[0]); err != nil {
						b.Fatal(err)
					}
					lat = append(lat, time.Since(start))
					live = live[1:]
					continue
				}
				batch := updateBatch(i)
				start := time.Now()
				if err := s.LoadTriples(batch); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(start))
				live = append(live, batch)
			}
			b.StopTimer()
			slices.Sort(lat)
			for _, q := range []struct {
				name string
				at   float64
			}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
				b.ReportMetric(float64(lat[int(q.at*float64(len(lat)-1))].Microseconds()), q.name+"_us")
			}
		})
	}
}

// updateBatch is batch i of BenchmarkUpdateBatch: 4 fresh subjects,
// each with a batch tag shared by the four and 4 literal properties.
func updateBatch(i int) []rdf.Triple {
	const ns = "http://bench/w/"
	id := fmt.Sprintf("b%d", i)
	ts := make([]rdf.Triple, 0, 20)
	for s := 0; s < 4; s++ {
		subj := rdf.NewIRI(fmt.Sprintf("%s%s/s%d", ns, id, s))
		ts = append(ts, rdf.NewTriple(subj, rdf.NewIRI(ns+"batch"), rdf.NewLiteral(id)))
		for p := 0; p < 4; p++ {
			ts = append(ts, rdf.NewTriple(subj, rdf.NewIRI(fmt.Sprintf("%sp%d", ns, p)), rdf.NewLiteral(fmt.Sprintf("v%d of %s", p, id))))
		}
	}
	return ts
}
