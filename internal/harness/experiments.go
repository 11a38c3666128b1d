package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"db2rdf"
	"db2rdf/internal/baselines"
	"db2rdf/internal/coloring"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/store"
)

// Scales sets the dataset sizes. The paper runs 60-333M triples on a
// DB2 testbed; the defaults here regenerate every figure's *shape* in
// seconds on a laptop.
type Scales struct {
	Micro     int // triples (paper: 1M)
	LUBMUnis  int // universities (paper: ~130 for 100M triples)
	SP2B      int // triples (paper: 100M)
	DBpedia   int // triples (paper: 333M)
	PRBench   int // triples (paper: 60M)
	NullsRows int // rows for the §2.3 NULL experiment (paper: 1M)
}

// DefaultScales returns the standard laptop-scale configuration.
func DefaultScales() Scales {
	return Scales{Micro: 60000, LUBMUnis: 12, SP2B: 40000, DBpedia: 40000, PRBench: 40000, NullsRows: 60000}
}

// SmallScales returns a fast configuration for tests.
func SmallScales() Scales {
	return Scales{Micro: 5000, LUBMUnis: 2, SP2B: 5000, DBpedia: 5000, PRBench: 5000, NullsRows: 5000}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// ExpFig3 reproduces §2.1 Tables 1-2 and Figure 3: the ten
// micro-benchmark star queries across the entity-oriented (DB2RDF),
// triple-store and predicate-oriented schemas. Per the paper, only
// subjects are indexed in all three stores.
func ExpFig3(w io.Writer, sc Scales, opts RunOptions) error {
	ds := gen.Micro(sc.Micro)
	fmt.Fprintf(w, "Figure 3 / Tables 1-2: schema micro-benchmark (%d triples)\n", len(ds.Triples))

	entity, err := db2rdf.Open(db2rdf.Options{})
	if err != nil {
		return err
	}
	if err := entity.LoadTriples(ds.Triples); err != nil {
		return err
	}
	triple, err := baselines.NewTripleStore(baselines.TripleOptions{IndexSubject: true})
	if err != nil {
		return err
	}
	if err := triple.LoadTriples(ds.Triples); err != nil {
		return err
	}
	vertical, err := baselines.NewVerticalStore(baselines.VerticalOptions{})
	if err != nil {
		return err
	}
	if err := vertical.LoadTriples(ds.Triples); err != nil {
		return err
	}
	systems := []System{
		{Name: "entity-oriented", Run: func(q string) (int, error) {
			r, err := entity.Query(q)
			if err != nil {
				return 0, err
			}
			return len(r.Rows), nil
		}},
		{Name: "triple-store", Run: baselineRunner(triple.Query)},
		{Name: "predicate-oriented", Run: baselineRunner(vertical.Query)},
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\tresults\tentity(ms)\ttriple(ms)\tpredicate(ms)\n")
	for _, q := range ds.Queries {
		var cells [3]string
		results := -1
		for i, sys := range systems {
			m := RunQuery(sys, q, -1, opts)
			if m.Outcome != Complete {
				cells[i] = m.Outcome.String()
				continue
			}
			cells[i] = ms(m.Mean)
			results = m.Rows
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", q.Name, results, cells[0], cells[1], cells[2])
	}
	return tw.Flush()
}

// colorReport summarizes coloring one dataset (one Table 4 row).
type colorReport struct {
	name     string
	triples  int
	preds    int
	dphCols  int
	dphCover float64
	rphCols  int
	rphCover float64
}

func colorDataset(name string, triples []rdf.Triple, budget int) colorReport {
	subjPreds := map[string][]string{}
	objPreds := map[string][]string{}
	predSet := map[string]bool{}
	for _, t := range triples {
		subjPreds[t.S.Key()] = append(subjPreds[t.S.Key()], t.P.Value)
		objPreds[t.O.Key()] = append(objPreds[t.O.Key()], t.P.Value)
		predSet[t.P.Value] = true
	}
	dg := coloring.NewInterference()
	for _, ps := range subjPreds {
		dg.AddEntity(ps)
	}
	rg := coloring.NewInterference()
	for _, ps := range objPreds {
		rg.AddEntity(ps)
	}
	dc := coloring.Greedy(dg, budget)
	rc := coloring.Greedy(rg, budget)
	return colorReport{
		name:     name,
		triples:  len(triples),
		preds:    len(predSet),
		dphCols:  dc.NumColors,
		dphCover: dc.Coverage(dg) * 100,
		rphCols:  rc.NumColors,
		rphCover: rc.Coverage(rg) * 100,
	}
}

// ExpTable4 reproduces Table 4: graph coloring results for the four
// datasets — columns required in DPH/RPH and the percentage of the
// data covered by the coloring.
func ExpTable4(w io.Writer, sc Scales) error {
	fmt.Fprintln(w, "Table 4: graph coloring results")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "dataset\ttriples\tpredicates\tDPH cols\tDPH cover%%\tRPH cols\tRPH cover%%\n")
	budget := 80
	for _, d := range []struct {
		name    string
		triples []rdf.Triple
	}{
		{"SP2Bench", gen.SP2B(sc.SP2B).Triples},
		{"PRBench", gen.PRBench(sc.PRBench).Triples},
		{"LUBM", gen.LUBM(sc.LUBMUnis).Triples},
		{"DBpedia", gen.DBpedia(sc.DBpedia).Triples},
	} {
		r := colorDataset(d.name, d.triples, budget)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%d\t%.1f\n",
			r.name, r.triples, r.preds, r.dphCols, r.dphCover, r.rphCols, r.rphCover)
	}
	return tw.Flush()
}

// ExpSpills reproduces the §2.3 spill study: spills when coloring the
// full dataset versus coloring only a 10%% sample and loading the rest
// through the colored mapping.
func ExpSpills(w io.Writer, sc Scales) error {
	fmt.Fprintln(w, "§2.3: spills under full vs 10% sample coloring (budget 80, DPH side)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "dataset\ttriples\tspills(full)\tspills(10%% sample)\n")
	for _, d := range []struct {
		name    string
		triples []rdf.Triple
	}{
		{"SP2Bench", gen.SP2B(sc.SP2B).Triples},
		{"LUBM", gen.LUBM(sc.LUBMUnis).Triples},
		{"DBpedia", gen.DBpedia(sc.DBpedia).Triples},
	} {
		full, err := spillsUnderColoring(d.triples, d.triples)
		if err != nil {
			return err
		}
		sample := d.triples[:len(d.triples)/10]
		partial, err := spillsUnderColoring(d.triples, sample)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", d.name, len(d.triples), full, partial)
	}
	return tw.Flush()
}

func spillsUnderColoring(all, sample []rdf.Triple) (int, error) {
	direct, reverse, _, _ := store.BuildMappings(sample, 80, 80)
	st, err := store.New(store.Options{K: 80, KReverse: 80, Mapping: direct, ReverseMapping: reverse})
	if err != nil {
		return 0, err
	}
	if err := st.LoadTriples(all); err != nil {
		return 0, err
	}
	return st.Snapshot().SpillCount(false), nil
}

// ExpNulls reproduces the §2.3 NULL experiment: a 5-predicate uniform
// dataset stored in tables widened with 5, 45 and 95 all-NULL columns;
// storage grows by ~10%% at 20x width while fast-query times degrade
// noticeably.
func ExpNulls(w io.Writer, sc Scales) error {
	rows := sc.NullsRows
	fmt.Fprintf(w, "§2.3: NULL columns, %d rows with 5 populated predicate columns\n", rows)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "extra null cols\ttotal cols\tbytes\tpoint query(ms)\tscan query(ms)\n")
	for _, extra := range []int{0, 5, 45, 95} {
		db := rel.NewDB()
		schema := rel.Schema{{Name: "entry"}}
		total := 5 + extra
		for i := 0; i < total; i++ {
			schema = append(schema, rel.Column{Name: fmt.Sprintf("pred%d", i)})
			schema = append(schema, rel.Column{Name: fmt.Sprintf("val%d", i)})
		}
		t, err := db.CreateTable("DPH", schema)
		if err != nil {
			return err
		}
		if err := t.CreateIndex("entry"); err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			row := rel.NullRow(1 + 2*total)
			row[0] = rel.ID(int64(i))
			for c := 0; c < 5; c++ {
				row[1+2*c] = rel.ID(int64(c + 1))
				row[1+2*c+1] = rel.ID(int64(i*5 + c))
			}
			if err := t.Insert(row); err != nil {
				return err
			}
		}
		pointMS, err := timeQuery(db, nullsQuery("val0", "entry", int64(rows/2)), 20)
		if err != nil {
			return err
		}
		scanMS, err := timeQuery(db, nullsQuery("entry", "val3", 17), 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%s\n", extra, total, t.EstimateBytes(), ms(pointMS), ms(scanMS))
	}
	return tw.Flush()
}

// nullsQuery is SELECT T.item AS item FROM DPH AS T WHERE T.col = id.
func nullsQuery(item, col string, id int64) *rel.Query {
	return &rel.Query{Body: &rel.Select{Limit: -1, Cores: []*rel.SelectCore{{
		Items: []rel.SelectItem{{Expr: &rel.ColRef{Alias: "T", Column: item}, Alias: item}},
		From:  []rel.FromItem{{Table: "DPH", Alias: "T"}},
		Where: &rel.BinOp{Op: "=", L: &rel.ColRef{Alias: "T", Column: col}, R: &rel.Lit{V: rel.Int(id)}},
	}}}}
}

// timeQuery binds q and returns the mean time of reps executions,
// failing on the first error.
func timeQuery(db *rel.DB, q *rel.Query, reps int) (time.Duration, error) {
	if err := rel.Bind(q); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := db.Exec(q); err != nil {
			return 0, fmt.Errorf("%s: %w", q, err)
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}

// ExpFig14 reproduces §3.3 / Figure 14: the same query evaluated with
// the hybrid optimizer's flow versus the alternative (sub-optimal)
// flow direction, on the micro data and on PRBench PQ1.
func ExpFig14(w io.Writer, sc Scales, opts RunOptions) error {
	// Sub-optimal flows are orders of magnitude slower by design (the
	// paper's PQ1 went from 4ms to 22.66s); give them room to finish
	// so the table reports true times rather than the timeout.
	if opts.Timeout < 120*time.Second {
		opts.Timeout = 120 * time.Second
	}
	if opts.Reps == 0 || opts.Reps > 2 {
		opts.Reps = 1
	}
	fmt.Fprintln(w, "Figure 14 / §3.3: optimized vs sub-optimal flow")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\toptimized(ms)\tsub-optimal(ms)\tspeedup\n")
	run := func(name string, ds *gen.Dataset, q gen.Query) error {
		hybrid, err := BuildSystem("db2rdf", ds)
		if err != nil {
			return err
		}
		naive, err := BuildSystem("db2rdf-noopt", ds)
		if err != nil {
			return err
		}
		a := RunQuery(hybrid, q, -1, opts)
		b := RunQuery(naive, q, -1, opts)
		speed := float64(b.Mean) / float64(a.Mean)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1fx\n", name, ms(a.Mean), ms(b.Mean), speed)
		return nil
	}
	flow := gen.MicroFlowData(sc.Micro)
	if err := run("FQ1 (micro)", flow, flow.Queries[0]); err != nil {
		return err
	}
	pr := gen.PRBench(sc.PRBench)
	for _, name := range []string{"PQ5", "PQ27"} {
		for _, q := range pr.Queries {
			if q.Name == name {
				if err := run(name+" (PRBench)", pr, q); err != nil {
					return err
				}
			}
		}
	}
	return tw.Flush()
}

// fig15Systems maps our configurations to the paper's comparators.
var fig15Systems = []struct{ name, standsFor string }{
	{"db2rdf", "DB2RDF"},
	{"triple-naive", "Jena-like"},
	{"triple-hybrid", "Virtuoso/RDF-3X-like"},
	{"vertical-naive", "Sesame-like"},
	{"vertical-hybrid", "C-store-like"},
}

// ExpFig15 reproduces Figure 15: the summary table — queries
// complete / timeout / error and mean evaluation time per system per
// dataset.
func ExpFig15(w io.Writer, sc Scales, opts RunOptions) error {
	// This experiment materializes every dataset in five schema
	// configurations plus a reference store; cap the per-dataset size
	// so the whole sweep stays within laptop memory.
	if sc.LUBMUnis > 6 {
		sc.LUBMUnis = 6
	}
	capTo := func(v *int, max int) {
		if *v > max {
			*v = max
		}
	}
	capTo(&sc.SP2B, 15000)
	capTo(&sc.DBpedia, 15000)
	capTo(&sc.PRBench, 15000)
	fmt.Fprintln(w, "Figure 15: summary results for all systems and datasets")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "dataset\tsystem\t(stands for)\tcomplete\ttimeout\terror\tmean(ms)\n")
	for _, d := range []struct {
		name string
		ds   *gen.Dataset
	}{
		{"LUBM", gen.LUBM(sc.LUBMUnis)},
		{"SP2Bench", gen.SP2B(sc.SP2B)},
		{"DBpedia", gen.DBpedia(sc.DBpedia)},
		{"PRBench", gen.PRBench(sc.PRBench)},
	} {
		refs, err := ReferenceCounts(d.ds, opts)
		if err != nil {
			return err
		}
		for _, sysDef := range fig15Systems {
			sys, err := BuildSystem(sysDef.name, d.ds)
			if err != nil {
				return err
			}
			var complete, timeout, errs int
			var total time.Duration
			var timed int
			for _, q := range d.ds.Queries {
				m := RunQuery(sys, q, refs[q.Name], opts)
				switch m.Outcome {
				case Complete:
					complete++
					total += m.Mean
					timed++
				case Timeout:
					timeout++
					total += m.Mean
					timed++
				default:
					errs++
				}
			}
			mean := time.Duration(0)
			if timed > 0 {
				mean = total / time.Duration(timed)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%s\n",
				d.name, sysDef.name, sysDef.standsFor, complete, timeout, errs, ms(mean))
		}
	}
	return tw.Flush()
}

// perQueryTable renders one Figure 16/17/18-style table: per-query
// times for DB2RDF and the comparators.
func perQueryTable(w io.Writer, title string, ds *gen.Dataset, queryNames []string, opts RunOptions) error {
	fmt.Fprintln(w, title)
	sysNames := []string{"db2rdf", "triple-naive", "triple-hybrid", "vertical-hybrid"}
	systems := make([]System, len(sysNames))
	for i, n := range sysNames {
		s, err := BuildSystem(n, ds)
		if err != nil {
			return err
		}
		systems[i] = s
	}
	want := map[string]bool{}
	for _, n := range queryNames {
		want[n] = true
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\trows\tdb2rdf(ms)\ttriple-naive(ms)\ttriple-hybrid(ms)\tvertical(ms)\n")
	for _, q := range ds.Queries {
		if len(want) > 0 && !want[q.Name] {
			continue
		}
		cells := make([]string, len(systems))
		rows := -1
		for i, sys := range systems {
			m := RunQuery(sys, q, -1, opts)
			if m.Outcome != Complete {
				cells[i] = m.Outcome.String()
				continue
			}
			cells[i] = ms(m.Mean)
			rows = m.Rows
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n", q.Name, rows, cells[0], cells[1], cells[2], cells[3])
	}
	return tw.Flush()
}

// ExpFig16 reproduces Figure 16: per-query LUBM results.
func ExpFig16(w io.Writer, sc Scales, opts RunOptions) error {
	return perQueryTable(w, "Figure 16: LUBM benchmark results", gen.LUBM(sc.LUBMUnis), nil, opts)
}

// ExpFig17 reproduces Figure 17: PRBench long-running queries.
func ExpFig17(w io.Writer, sc Scales, opts RunOptions) error {
	return perQueryTable(w, "Figure 17: PRBench long-running queries",
		gen.PRBench(sc.PRBench), []string{"PQ10", "PQ26", "PQ27", "PQ28"}, opts)
}

// ExpFig18 reproduces Figure 18: PRBench medium-running queries.
func ExpFig18(w io.Writer, sc Scales, opts RunOptions) error {
	return perQueryTable(w, "Figure 18: PRBench medium-running queries",
		gen.PRBench(sc.PRBench), []string{"PQ14", "PQ15", "PQ16", "PQ17", "PQ24", "PQ29"}, opts)
}

// ExpAblationMapping compares predicate-to-column policies (§2.2):
// spill rows under 1-, 2- and 3-way composed hashing versus coloring.
func ExpAblationMapping(w io.Writer, sc Scales) error {
	fmt.Fprintln(w, "Ablation: predicate mapping policy vs spills (budget 32, DPH side)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "dataset\thash-1\thash-2\thash-3\tcolored\n")
	for _, d := range []struct {
		name    string
		triples []rdf.Triple
	}{
		{"LUBM", gen.LUBM(sc.LUBMUnis).Triples},
		{"SP2Bench", gen.SP2B(sc.SP2B).Triples},
		{"DBpedia", gen.DBpedia(sc.DBpedia).Triples},
	} {
		var cells []string
		for n := 1; n <= 3; n++ {
			st, err := store.New(store.Options{K: 32, Mapping: coloring.NewHashMapping(32, n)})
			if err != nil {
				return err
			}
			if err := st.LoadTriples(d.triples); err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%d", st.Snapshot().SpillCount(false)))
		}
		direct, reverse, _, _ := store.BuildMappings(d.triples, 32, 32)
		st, err := store.New(store.Options{K: 32, Mapping: direct, ReverseMapping: reverse})
		if err != nil {
			return err
		}
		if err := st.LoadTriples(d.triples); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n", d.name, cells[0], cells[1], cells[2], st.Snapshot().SpillCount(false))
	}
	return tw.Flush()
}

// ExpAblationMerge quantifies the star-merging contribution (§2.1's
// join elimination): micro-benchmark times with merging on and off.
func ExpAblationMerge(w io.Writer, sc Scales, opts RunOptions) error {
	ds := gen.Micro(sc.Micro)
	fmt.Fprintf(w, "Ablation: star merging on/off (micro benchmark, %d triples)\n", len(ds.Triples))
	on, err := BuildSystem("db2rdf", ds)
	if err != nil {
		return err
	}
	off, err := BuildSystem("db2rdf-nomerge", ds)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\tmerged(ms)\tunmerged(ms)\tspeedup\n")
	for _, q := range ds.Queries {
		a := RunQuery(on, q, -1, opts)
		b := RunQuery(off, q, -1, opts)
		if a.Outcome != Complete || b.Outcome != Complete {
			fmt.Fprintf(tw, "%s\t%s\t%s\t-\n", q.Name, a.Outcome, b.Outcome)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1fx\n", q.Name, ms(a.Mean), ms(b.Mean), float64(b.Mean)/float64(a.Mean))
	}
	return tw.Flush()
}

// ExpAblationK sweeps the DPH column budget K: spill rows and Q6 (the
// widest star) time.
func ExpAblationK(w io.Writer, sc Scales, opts RunOptions) error {
	ds := gen.Micro(sc.Micro)
	fmt.Fprintf(w, "Ablation: column budget K (micro benchmark, %d triples)\n", len(ds.Triples))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "K\tspill rows\tQ6(ms)\tQ1(ms)\n")
	q6 := ds.Queries[5]
	q1 := ds.Queries[0]
	for _, k := range []int{4, 8, 16, 32, 64} {
		s, err := db2rdf.Open(db2rdf.Options{K: k, KReverse: k})
		if err != nil {
			return err
		}
		if err := s.LoadTriples(ds.Triples); err != nil {
			return err
		}
		sys := System{Name: "db2rdf", Run: func(q string) (int, error) {
			r, err := s.Query(q)
			if err != nil {
				return 0, err
			}
			return len(r.Rows), nil
		}}
		a := RunQuery(sys, q6, -1, opts)
		b := RunQuery(sys, q1, -1, opts)
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\n", k, s.Internal().Snapshot().SpillCount(false), ms(a.Mean), ms(b.Mean))
	}
	return tw.Flush()
}

// ExpTable3 prints the composed-hash walkthrough of §2.2 / Table 3
// (also verified by TestComposedHashAndroidExample).
func ExpTable3(w io.Writer) error {
	fmt.Fprintln(w, "Table 3 / §2.2: composed hashing walkthrough (Android triples)")
	fmt.Fprintln(w, `  developer -> pred1 (h1)
  version   -> pred2 (h1)
  kernel    -> pred3 (h2; h1 slot taken by developer)
  preceded  -> predk (h1)
  graphics  -> spill (h1=pred3 and h2=pred2 both taken)`)
	return nil
}
