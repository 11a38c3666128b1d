package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// serverBinary builds cmd/db2rdf-server for the tests that drive it.
func serverBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "db2rdf-server")
	if out, err := exec.Command("go", "build", "-o", bin, "db2rdf/cmd/db2rdf-server").CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	return bin
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload untraced and traced at a fiftieth of
// the size for a fraction of a second, and holds the metric lists in
// spec.go to BENCHMARK.json, which the driver reads.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkList := func(kind string, defs []metricDef, file []benchMetric) {
		if len(defs) != len(file) {
			t.Errorf("%s: spec.go has %d metrics, BENCHMARK.json %d", kind, len(defs), len(file))
			return
		}
		for i, d := range defs {
			if d.name != file[i].Name || d.unit != file[i].Unit {
				t.Errorf("%s[%d]: spec.go has %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, file[i].Name, file[i].Unit)
			}
			if !metricName.MatchString(d.name) || d.unit == "" {
				t.Errorf("%s: bad name or empty unit: %q %q", kind, d.name, d.unit)
			}
		}
	}
	checkList("end_to_end", endToEnd, bf.EndToEnd)
	checkList("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloadNames))
	}

	cfg := config{seed: 1, seconds: 0.2, scale: 0.02, clients: defaultClients(), serverBin: serverBinary(t), tmpDir: t.TempDir()}
	for i, workload := range workloadNames {
		if bf.Workloads[i].Name != workload {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, bf.Workloads[i].Name, workload)
		}
		for _, trace := range []bool{false, true} {
			cfg.workload, cfg.trace = workload, trace
			start := time.Now()
			out, err := run(cfg)
			t.Logf("%s trace=%v: %d ops in %s", workload, trace, out.attempted, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, trace, err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", workload, trace, out.attempted, out.failed)
			}
			if !trace {
				for _, d := range endToEnd {
					if out.metrics.get(d.name) <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", workload, d.name, out.metrics.get(d.name))
					}
				}
				continue
			}
			hit := out.metrics.get("db2rdf.plan_cache_hit_ratio")
			if workload == wlWarm && hit < 0.99 {
				t.Errorf("%s: plan-cache hit ratio %v, want >= 0.99", workload, hit)
			}
			if workload == wlCold && hit > 0.01 {
				t.Errorf("%s: plan-cache hit ratio %v, want <= 0.01", workload, hit)
			}
			if len(out.tracer.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", workload)
			}
		}
	}
	if entries, _ := os.ReadDir(cfg.tmpDir); len(entries) != 0 {
		t.Errorf("runs left %d entries in the scratch directory", len(entries))
	}
}
