// This example generates a LUBM-style university dataset, loads it
// under a coloring-based predicate layout, and runs the 12 expanded
// benchmark queries, comparing the hybrid optimizer against the naive
// document-order flow on each.
package main

import (
	"fmt"
	"log"
	"time"

	"db2rdf"
	"db2rdf/internal/gen"
)

func main() {
	ds := gen.LUBM(6)
	fmt.Printf("generated %d LUBM triples\n", len(ds.Triples))

	// Color the predicate layout from the data (§2.2).
	direct, reverse := db2rdf.ColorTriples(ds.Triples, 24, 24)
	hybrid, err := db2rdf.Open(db2rdf.Options{K: 24, KReverse: 24, Mapping: direct, ReverseMapping: reverse})
	if err != nil {
		log.Fatal(err)
	}
	naive, err := db2rdf.Open(db2rdf.Options{K: 24, KReverse: 24, DisableHybridOptimizer: true})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := hybrid.LoadTriples(ds.Triples); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %s (%d spills)\n\n", time.Since(start).Round(time.Millisecond), hybrid.Internal().Snapshot().SpillCount(false))
	if err := naive.LoadTriples(ds.Triples); err != nil {
		log.Fatal(err)
	}

	fmt.Println("query\trows\thybrid\tnaive")
	for _, q := range ds.Queries {
		t0 := time.Now()
		a, err := hybrid.Query(q.SPARQL)
		if err != nil {
			log.Fatalf("%s: %v", q.Name, err)
		}
		ta := time.Since(t0)
		t0 = time.Now()
		if _, err := naive.Query(q.SPARQL); err != nil {
			log.Fatalf("%s naive: %v", q.Name, err)
		}
		tb := time.Since(t0)
		fmt.Printf("%s\t%d\t%s\t%s\n", q.Name, len(a.Rows), ta.Round(10*time.Microsecond), tb.Round(10*time.Microsecond))
	}
}
