package db2rdf_test

// Benchmarks regenerating the paper's tables and figures as testing.B
// targets (the cmd/db2rdf-bench tool prints the full tables; these
// give ns/op series for each). One benchmark per table/figure:
//
//	BenchmarkFig3Micro            §2.1 Tables 1-2 + Figure 3
//	BenchmarkTable4Coloring       Table 4
//	BenchmarkNullColumns          §2.3 NULL experiment
//	BenchmarkFig14Flow            §3.3 / Figure 14
//	BenchmarkFig15Workloads       Figure 15 (one op = full workload)
//	BenchmarkFig16LUBM            Figure 16
//	BenchmarkFig17PRBenchLong     Figure 17
//	BenchmarkFig18PRBenchMedium   Figure 18
//	BenchmarkAblationMerge        star merging on/off
//	BenchmarkAblationColumnBudget K sweep
//	BenchmarkLoad                 bulk load throughput
//	BenchmarkLoadText             bulk load from N-Triples text
//	BenchmarkConcurrentQuery      read-lock scaling under parallel queries

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"db2rdf"
	"db2rdf/internal/baselines"
	"db2rdf/internal/coloring"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/store"
)

// Bench-scale datasets, built once.
var (
	microOnce sync.Once
	microDS   *gen.Dataset
	lubmOnce  sync.Once
	lubmDS    *gen.Dataset
	prOnce    sync.Once
	prDS      *gen.Dataset
	sp2bOnce  sync.Once
	sp2bDS    *gen.Dataset
	dbpOnce   sync.Once
	dbpDS     *gen.Dataset
)

func microData() *gen.Dataset {
	microOnce.Do(func() { microDS = gen.Micro(20000) })
	return microDS
}
func lubmData() *gen.Dataset {
	lubmOnce.Do(func() { lubmDS = gen.LUBM(4) })
	return lubmDS
}
func prData() *gen.Dataset {
	prOnce.Do(func() { prDS = gen.PRBench(15000) })
	return prDS
}
func sp2bData() *gen.Dataset {
	sp2bOnce.Do(func() { sp2bDS = gen.SP2B(15000) })
	return sp2bDS
}
func dbpData() *gen.Dataset {
	dbpOnce.Do(func() { dbpDS = gen.DBpedia(15000) })
	return dbpDS
}

type benchStores struct {
	entity   *db2rdf.Store
	noopt    *db2rdf.Store
	nomerge  *db2rdf.Store
	triple   *baselines.TripleStore
	vertical *baselines.VerticalStore
}

var (
	storeCacheMu sync.Mutex
	storeCache   = map[string]*benchStores{}
)

func storesFor(b *testing.B, ds *gen.Dataset) *benchStores {
	b.Helper()
	storeCacheMu.Lock()
	defer storeCacheMu.Unlock()
	if s, ok := storeCache[ds.Name]; ok {
		return s
	}
	s := &benchStores{}
	var err error
	if s.entity, err = db2rdf.Open(db2rdf.Options{}); err != nil {
		b.Fatal(err)
	}
	if err = s.entity.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	if s.noopt, err = db2rdf.Open(db2rdf.Options{DisableHybridOptimizer: true}); err != nil {
		b.Fatal(err)
	}
	if err = s.noopt.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	if s.nomerge, err = db2rdf.Open(db2rdf.Options{DisableMerging: true}); err != nil {
		b.Fatal(err)
	}
	if err = s.nomerge.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	if s.triple, err = baselines.NewTripleStore(baselines.TripleOptions{IndexSubject: true, IndexObject: true}); err != nil {
		b.Fatal(err)
	}
	if err = s.triple.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	if s.vertical, err = baselines.NewVerticalStore(baselines.VerticalOptions{}); err != nil {
		b.Fatal(err)
	}
	if err = s.vertical.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	storeCache[ds.Name] = s
	return s
}

func benchEntity(b *testing.B, s *db2rdf.Store, q string) {
	b.Helper()
	if _, err := s.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTriple(b *testing.B, s *baselines.TripleStore, q string) {
	b.Helper()
	if _, err := s.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVertical(b *testing.B, s *baselines.VerticalStore, q string) {
	b.Helper()
	if _, err := s.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Micro regenerates Figure 3: the Table 2 star queries on
// each schema.
func BenchmarkFig3Micro(b *testing.B) {
	ds := microData()
	s := storesFor(b, ds)
	for _, q := range ds.Queries {
		b.Run(q.Name+"/entity", func(b *testing.B) { benchEntity(b, s.entity, q.SPARQL) })
		b.Run(q.Name+"/triple", func(b *testing.B) { benchTriple(b, s.triple, q.SPARQL) })
		b.Run(q.Name+"/predicate", func(b *testing.B) { benchVertical(b, s.vertical, q.SPARQL) })
	}
}

// BenchmarkTable4Coloring regenerates Table 4's work: building the
// interference graph and coloring it for each dataset.
func BenchmarkTable4Coloring(b *testing.B) {
	for _, d := range []struct {
		name string
		ds   *gen.Dataset
	}{
		{"LUBM", lubmData()},
		{"SP2Bench", sp2bData()},
		{"DBpedia", dbpData()},
		{"PRBench", prData()},
	} {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store.BuildMappings(d.ds.Triples, 80, 80)
			}
		})
	}
}

// BenchmarkNullColumns regenerates the §2.3 NULL experiment: scan
// queries over tables widened with all-NULL columns.
func BenchmarkNullColumns(b *testing.B) {
	const rows = 20000
	for _, extra := range []int{0, 45, 95} {
		db := rel.NewDB()
		schema := rel.Schema{{Name: "entry"}}
		total := 5 + extra
		for i := 0; i < total; i++ {
			schema = append(schema, rel.Column{Name: fmt.Sprintf("pred%d", i)})
			schema = append(schema, rel.Column{Name: fmt.Sprintf("val%d", i)})
		}
		t, err := db.CreateTable("DPH", schema)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			row := rel.NullRow(1 + 2*total)
			row[0] = rel.ID(int64(i))
			for c := 0; c < 5; c++ {
				row[1+2*c] = rel.ID(int64(c + 1))
				row[1+2*c+1] = rel.ID(int64(i*5 + c))
			}
			if err := t.Insert(row); err != nil {
				b.Fatal(err)
			}
		}
		q, err := rel.ParseQuery("SELECT T.entry AS entry FROM DPH AS T WHERE T.val3 = 17")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("extraNulls%d", extra), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14Flow regenerates Figure 14: the same query under the
// optimal and the sub-optimal flow.
func BenchmarkFig14Flow(b *testing.B) {
	ds := gen.MicroFlowData(8000)
	opt, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := opt.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	sub, err := db2rdf.Open(db2rdf.Options{DisableHybridOptimizer: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := sub.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	q := ds.Queries[0].SPARQL
	b.Run("optimized", func(b *testing.B) { benchEntity(b, opt, q) })
	b.Run("suboptimal", func(b *testing.B) { benchEntity(b, sub, q) })
}

// BenchmarkFig15Workloads regenerates Figure 15's totals: one op runs
// a dataset's full query workload on one system.
func BenchmarkFig15Workloads(b *testing.B) {
	for _, d := range []struct {
		name string
		ds   *gen.Dataset
	}{
		{"LUBM", lubmData()},
		{"SP2Bench", sp2bData()},
		{"DBpedia", dbpData()},
		{"PRBench", prData()},
	} {
		s := storesFor(b, d.ds)
		runAll := func(b *testing.B, run func(string) error) {
			for i := 0; i < b.N; i++ {
				for _, q := range d.ds.Queries {
					if q.Name == "SQ4" {
						continue // the intentional near-cross-product
					}
					if err := run(q.SPARQL); err != nil {
						b.Fatal(q.Name, err)
					}
				}
			}
		}
		b.Run(d.name+"/db2rdf", func(b *testing.B) {
			runAll(b, func(q string) error { _, err := s.entity.Query(q); return err })
		})
		b.Run(d.name+"/triple", func(b *testing.B) {
			runAll(b, func(q string) error { _, err := s.triple.Query(q); return err })
		})
		b.Run(d.name+"/vertical", func(b *testing.B) {
			runAll(b, func(q string) error { _, err := s.vertical.Query(q); return err })
		})
	}
}

// BenchmarkFig16LUBM regenerates Figure 16: per-query LUBM times.
func BenchmarkFig16LUBM(b *testing.B) {
	ds := lubmData()
	s := storesFor(b, ds)
	for _, q := range ds.Queries {
		b.Run(q.Name+"/db2rdf", func(b *testing.B) { benchEntity(b, s.entity, q.SPARQL) })
		b.Run(q.Name+"/triple", func(b *testing.B) { benchTriple(b, s.triple, q.SPARQL) })
	}
}

// BenchmarkFig17PRBenchLong regenerates Figure 17: the long-running
// PRBench queries.
func BenchmarkFig17PRBenchLong(b *testing.B) {
	benchPRSubset(b, []string{"PQ10", "PQ26", "PQ27", "PQ28"})
}

// BenchmarkFig18PRBenchMedium regenerates Figure 18: the
// medium-running PRBench queries.
func BenchmarkFig18PRBenchMedium(b *testing.B) {
	benchPRSubset(b, []string{"PQ14", "PQ15", "PQ16", "PQ17", "PQ24", "PQ29"})
}

func benchPRSubset(b *testing.B, names []string) {
	ds := prData()
	s := storesFor(b, ds)
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, q := range ds.Queries {
		if !want[q.Name] {
			continue
		}
		b.Run(q.Name+"/db2rdf", func(b *testing.B) { benchEntity(b, s.entity, q.SPARQL) })
		b.Run(q.Name+"/triple", func(b *testing.B) { benchTriple(b, s.triple, q.SPARQL) })
	}
}

// BenchmarkAblationMerge quantifies star merging (§2.1's join
// elimination): the widest micro star with merging on and off.
func BenchmarkAblationMerge(b *testing.B) {
	ds := microData()
	s := storesFor(b, ds)
	q6 := ds.Queries[5].SPARQL
	b.Run("merged", func(b *testing.B) { benchEntity(b, s.entity, q6) })
	b.Run("unmerged", func(b *testing.B) { benchEntity(b, s.nomerge, q6) })
}

// BenchmarkAblationColumnBudget sweeps the DPH column budget K.
func BenchmarkAblationColumnBudget(b *testing.B) {
	ds := microData()
	q6 := ds.Queries[5].SPARQL
	for _, k := range []int{4, 16, 64} {
		s, err := db2rdf.Open(db2rdf.Options{K: k, KReverse: k})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.LoadTriples(ds.Triples); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) { benchEntity(b, s, q6) })
	}
}

// BenchmarkAblationMapping compares load cost of hash vs colored
// predicate mappings.
func BenchmarkAblationMapping(b *testing.B) {
	ds := lubmData()
	direct, reverse, _, _ := store.BuildMappings(ds.Triples, 24, 24)
	configs := []struct {
		name     string
		mapping  coloring.Mapping
		rmapping coloring.Mapping
	}{
		{"hash2", nil, nil},
		{"colored", direct, reverse},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := db2rdf.Open(db2rdf.Options{K: 24, KReverse: 24, Mapping: cfg.mapping, ReverseMapping: cfg.rmapping})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.LoadTriples(ds.Triples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoad measures bulk-load throughput into the DB2RDF schema.
func BenchmarkLoad(b *testing.B) {
	ds := microData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.LoadTriples(ds.Triples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.Triples)), "triples/op")
}

// BenchmarkLoadText loads LUBM from its serialized N-Triples text
// through LoadReader, so it pays for parsing as well as placement.
func BenchmarkLoadText(b *testing.B) {
	ds := lubmData()
	var buf bytes.Buffer
	w := rdf.NewWriter(&buf)
	for _, t := range ds.Triples {
		if err := w.Write(t); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < b.N; i++ {
		s, err := db2rdf.Open(db2rdf.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.LoadReader(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.Triples)), "triples/op")
}

// BenchmarkConcurrentQuery measures query throughput under increasing
// goroutine counts: queries read a published snapshot without locking,
// so they should scale with available parallelism rather than serialize.
func BenchmarkConcurrentQuery(b *testing.B) {
	ds := lubmData()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	// A small mixed workload of fast queries, cycled atomically so each
	// goroutine keeps all of them warm.
	queries := []string{
		ds.Queries[0].SPARQL,
		`SELECT ?s WHERE { ?s <http://lubm/name> ?n } LIMIT 50`,
		`ASK { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm/FullProfessor> }`,
	}
	for _, q := range queries {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines%d", g), func(b *testing.B) {
			var next int64
			b.SetParallelism(g)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := queries[int(atomic.AddInt64(&next, 1))%len(queries)]
					if _, err := s.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkReadDuringLoad measures warm-query latency while a bulk
// loader continuously inserts fresh batches and publishes snapshots.
// Readers never take the store lock, so this should track the idle
// warm-query latency (BenchmarkPlanCache/warm) rather than the load
// duration.
func BenchmarkReadDuringLoad(b *testing.B) {
	ds := lubmData()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	q := ds.Queries[0].SPARQL
	if _, err := s.Query(q); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for batch := 0; ; batch++ {
			select {
			case <-stop:
				return
			default:
			}
			tris := make([]rdf.Triple, 0, 500)
			for i := 0; i < 500; i++ {
				tris = append(tris, rdf.NewTriple(
					rdf.NewIRI(fmt.Sprintf("http://bench-churn/s%d-%d", batch, i)),
					rdf.NewIRI(fmt.Sprintf("http://bench-churn/p%d", i%7)),
					rdf.NewLiteral(fmt.Sprintf("v%d", i)),
				))
			}
			if err := s.LoadTriples(tris); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkSnapshotPublish measures the writer-side cost of one
// insert plus snapshot publication (COW chunk sealing, index freeze,
// atomic pointer swap) against a loaded LUBM store — the price every
// mutation pays so readers never wait.
func BenchmarkSnapshotPublish(b *testing.B) {
	ds := lubmData()
	s, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadTriples(ds.Triples); err != nil {
		b.Fatal(err)
	}
	inner := s.Internal()
	inner.Lock()
	defer inner.Unlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inner.InsertTriplesLocked([]rdf.Triple{rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://pub/s%d", i)),
			rdf.NewIRI("http://pub/p"),
			rdf.NewLiteral(fmt.Sprintf("v%d", i)),
		)}); err != nil {
			b.Fatal(err)
		}
		inner.PublishLocked()
	}
}

// BenchmarkPlanCache isolates the compiled-plan cache: "warm" repeats
// one query so every iteration is a cache hit (parse, optimize,
// SQL-gen and SQL-parse all skipped), "cold" drops the cache each
// iteration so every execution recompiles from scratch.
func BenchmarkPlanCache(b *testing.B) {
	ds := lubmData()
	s := storesFor(b, ds).entity
	q := ds.Queries[0].SPARQL
	if _, err := s.Query(q); err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.ResetPlanCache()
			if _, err := s.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
