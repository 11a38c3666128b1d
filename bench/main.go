// Command bench is the repository's benchmark: four workloads over
// the LUBM and SP2Bench generators, measured end to end (--trace 0)
// and layer by layer (--trace 1). See README.md; run it through run.sh,
// which builds it and the server it drives.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runLimit ends a run that hangs: the caller gives up at 180 s, and a
// result that late is worth nothing.
const runLimit = 150 * time.Second

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outFile is bench/out/<workload>[.traced].json: every metric of the
// run, whichever list it belongs to, and where the run happened.
type outFile struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Scale     float64                `json:"scale"`
	Trace     bool                   `json:"trace"`
	Clients   int                    `json:"clients"`
	NProc     int                    `json:"nproc"`
	GoVersion string                 `json:"go_version"`
	Commit    string                 `json:"commit"`
	HostNs    float64                `json:"host_pointer_chase_ns"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Slices    []slice                `json:"slices,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation sequence and every query constant")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json with -all, else 10)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	flag.Float64Var(&cfg.scale, "scale", 1, "dataset size multiplier (1 = LUBM(100), SP2B(200000))")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for <workload>.json and <workload>.trace.json")
	flag.StringVar(&cfg.serverBin, "server", ".bench_build/db2rdf-server", "cmd/db2rdf-server binary (http_mixed_rw)")
	flag.StringVar(&cfg.tmpDir, "tmp", ".bench_build/tmp", "scratch directory")
	all := flag.Bool("all", false, "run every workload untraced, then traced, and print every metric")
	repeat := flag.Int("repeat", 1, "with -all: run this many full sets and compare them against the bounds in BENCHMARK.json")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "with -all: the benchmark definition to read run_seconds and bounds from")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.clients = defaultClients()

	if *all {
		os.Exit(runAll(cfg, *benchFile, *repeat))
	}
	if cfg.seconds <= 0 {
		cfg.seconds = 10
	}
	time.AfterFunc(runLimit, func() {
		// Exiting takes the server along (see dieWithParent).
		fmt.Fprintf(os.Stderr, "bench: no result after %s, giving up\n", runLimit)
		os.Exit(3)
	})
	out, err := run(cfg)
	if err == nil {
		err = writeOutputs(cfg, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = out.metrics[d.name]
	}
	enc, err := json.Marshal(line)
	if err != nil { // a metric that is not a finite number
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

// writeOutputs leaves the run's full record in the output directory.
func writeOutputs(cfg config, out *outcome) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := cfg.workload
	if cfg.trace {
		name += ".traced"
		if err := out.tracer.write(filepath.Join(cfg.outDir, cfg.workload+".trace.json")); err != nil {
			return err
		}
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	rec := outFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		Clients: cfg.clients, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit, HostNs: hostChaseNs(),
		Attempted: out.attempted, Failed: out.failed, Slices: out.slices, Metrics: out.metrics,
	}
	if cfg.trace {
		rec.Clients = 1
	}
	enc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name+".json"), append(enc, '\n'), 0o644)
}
