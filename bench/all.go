package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runSelf runs one workload in a process of its own, as the driver
// does, and returns its result line.
func runSelf(cfg config, workload string, trace int) (*resultLine, error) {
	cmd := exec.Command(os.Args[0],
		"-workload", workload, "-trace", fmt.Sprint(trace),
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-scale", fmt.Sprint(cfg.scale),
		"-out", cfg.outDir, "-server", cfg.serverBin, "-tmp", cfg.tmpDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	return &line, nil
}

// runAll runs `repeat` full sets (every workload untraced, then every
// workload traced), prints every metric by name with its unit, and
// with two or more sets holds the last to the first by the driver's
// rule: no end-to-end metric may be worse than in the first set by
// more than its bound in BENCHMARK.json. It returns the exit code: 1 if
// an answer was wrong or a bound was breached.
func runAll(cfg config, benchPath string, repeat int) int {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(bf.RunSeconds)
	}
	code := 0
	sets := make([]map[string]*resultLine, repeat) // workload -> untraced result
	for r := range sets {
		sets[r] = map[string]*resultLine{}
		for trace := 0; trace <= 1; trace++ {
			for _, w := range bf.Workloads {
				line, err := runSelf(cfg, w.Name, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if trace == 0 {
					sets[r][w.Name] = line
				}
				if !line.Correct {
					code = 1
				}
				printResult(r+1, w.Name, trace, line, append(bf.EndToEnd, bf.PerLayer...))
			}
		}
	}
	if repeat < 2 {
		return code
	}
	fmt.Printf("\n%-18s %-30s %14s %14s %8s %6s\n", "workload", "metric", "set 1", fmt.Sprintf("set %d", repeat), "worse by", "bound")
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			a, b := sets[0][w.Name].Metrics[d.Name].Value, sets[repeat-1][w.Name].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if !(worse <= d.Bound) {
				verdict = "  BREACH"
				code = 1
			}
			fmt.Printf("%-18s %-30s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", w.Name, d.Name, a, b, worse*100, d.Bound*100, verdict)
		}
	}
	return code
}

// printResult lists the metrics of one run in BENCHMARK.json's order.
func printResult(set int, workload string, trace int, line *resultLine, order []benchMetric) {
	fmt.Printf("\n== set %d  %s  trace=%d  attempted=%d failed=%d correct=%v\n", set, workload, trace, line.Attempted, line.Failed, line.Correct)
	for _, d := range order {
		if v, ok := line.Metrics[d.Name]; ok {
			fmt.Printf("%-36s %16s %s\n", d.Name, strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v.Value), "0"), "."), v.Unit)
		}
	}
}
