package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"db2rdf/internal/gen"
	"db2rdf/internal/rel"
)

func fastOpts() RunOptions { return RunOptions{Reps: 1, Timeout: 30 * time.Second} }

func TestBuildAllSystems(t *testing.T) {
	ds := gen.Micro(1500)
	for _, name := range SystemNames {
		sys, err := BuildSystem(name, ds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := sys.Run(ds.Queries[0].SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rows < 0 {
			t.Fatalf("%s: negative rows", name)
		}
	}
	if _, err := BuildSystem("nosuch", ds); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestSystemsAgreeOnMicro(t *testing.T) {
	ds := gen.Micro(1500)
	refs, err := ReferenceCounts(ds, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SystemNames {
		sys, err := BuildSystem(name, ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ds.Queries {
			m := RunQuery(sys, q, refs[q.Name], fastOpts())
			if m.Outcome != Complete {
				t.Errorf("%s %s: outcome %v (rows %d, want %d)", name, q.Name, m.Outcome, m.Rows, refs[q.Name])
			}
		}
	}
}

func TestRunQueryClassifiesErrors(t *testing.T) {
	ds := gen.Micro(1000)
	sys, err := BuildSystem("db2rdf", ds)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong reference count -> Error.
	m := RunQuery(sys, ds.Queries[0], 999999, fastOpts())
	if m.Outcome != Error {
		t.Fatalf("outcome = %v, want error", m.Outcome)
	}
	// Unparsable query -> Error.
	m = RunQuery(sys, gen.Query{Name: "bad", SPARQL: "NOT SPARQL"}, -1, fastOpts())
	if m.Outcome != Error {
		t.Fatalf("outcome = %v, want error", m.Outcome)
	}
	// Timeout classification.
	slow := System{Name: "slow", Run: func(string) (int, error) {
		time.Sleep(50 * time.Millisecond)
		return 0, nil
	}}
	m = RunQuery(slow, ds.Queries[0], -1, RunOptions{Reps: 1, Timeout: 5 * time.Millisecond})
	if m.Outcome != Timeout {
		t.Fatalf("outcome = %v, want timeout", m.Outcome)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{Complete: "complete", Error: "error", Timeout: "timeout", Unsupported: "unsupported"} {
		if o.String() != want {
			t.Errorf("%v", o)
		}
	}
}

// TestExperimentsRunAtSmallScale executes every experiment end to end
// at tiny scale and sanity-checks the output tables.
func TestExperimentsRunAtSmallScale(t *testing.T) {
	sc := Scales{Micro: 1500, LUBMUnis: 1, SP2B: 1500, DBpedia: 1500, PRBench: 1500, NullsRows: 500}
	opts := fastOpts()
	cases := []struct {
		name string
		run  func(*bytes.Buffer) error
		want []string
	}{
		{"fig3", func(b *bytes.Buffer) error { return ExpFig3(b, sc, opts) }, []string{"Q1", "Q10", "entity(ms)"}},
		{"table3", func(b *bytes.Buffer) error { return ExpTable3(b) }, []string{"graphics", "spill"}},
		{"table4", func(b *bytes.Buffer) error { return ExpTable4(b, sc) }, []string{"SP2Bench", "DBpedia", "DPH cols"}},
		{"spills", func(b *bytes.Buffer) error { return ExpSpills(b, sc) }, []string{"LUBM", "spills(full)"}},
		{"nulls", func(b *bytes.Buffer) error { return ExpNulls(b, sc) }, []string{"95", "bytes"}},
		{"fig16", func(b *bytes.Buffer) error { return ExpFig16(b, sc, opts) }, []string{"LQ1", "LQ14"}},
		{"fig17", func(b *bytes.Buffer) error { return ExpFig17(b, sc, opts) }, []string{"PQ10", "PQ26"}},
		{"fig18", func(b *bytes.Buffer) error { return ExpFig18(b, sc, opts) }, []string{"PQ14", "PQ29"}},
		{"ablation-mapping", func(b *bytes.Buffer) error { return ExpAblationMapping(b, sc) }, []string{"hash-1", "colored"}},
		{"ablation-k", func(b *bytes.Buffer) error { return ExpAblationK(b, sc, opts) }, []string{"K", "spill rows"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.run(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestFig15SmallScale runs the summary experiment (slowest) once.
func TestFig15SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Scales{Micro: 1000, LUBMUnis: 1, SP2B: 1200, DBpedia: 1200, PRBench: 1200, NullsRows: 500}
	var buf bytes.Buffer
	if err := ExpFig15(&buf, sc, fastOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{"LUBM", "PRBench", "db2rdf", "complete"} {
		if !strings.Contains(out, w) {
			t.Errorf("fig15 output missing %q", w)
		}
	}
	// db2rdf must complete every LUBM query (12 of 12, Main Result 1).
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "LUBM") && strings.Contains(line, "db2rdf") && !strings.Contains(line, "12") {
			t.Errorf("db2rdf must complete all 12 LUBM queries: %s", line)
		}
	}
}

// TestTimeQueryReportsErrors: a timed query that fails is an error, not
// a time. ExpNulls used to print 0.00 ms for a query that never ran.
func TestTimeQueryReportsErrors(t *testing.T) {
	db := rel.NewDB()
	tbl, err := db.CreateTable("DPH", rel.Schema{{Name: "entry"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(rel.Row{rel.ID(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := timeQuery(db, nullsQuery("entry", "entry", 1), 2); err != nil {
		t.Fatalf("a valid query: %v", err)
	}
	unnamed := nullsQuery("entry", "entry", 1)
	unnamed.Body.Cores[0].Items[0].Alias = "" // does not bind
	noTable := nullsQuery("entry", "entry", 1)
	noTable.Body.Cores[0].From[0].Table = "NOPE" // fails when it runs
	for _, q := range []*rel.Query{unnamed, noTable, nullsQuery("nope", "entry", 1)} {
		if d, err := timeQuery(db, q, 2); err == nil {
			t.Errorf("%s: timed at %v, want an error", q, d)
		}
	}
}
