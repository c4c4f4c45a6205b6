package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the driver itself reads: the
// bound and direction of each end-to-end metric.
type benchmarkSpec struct {
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// specMetric is one declared metric; per-layer metrics have no bound.
type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// exactMetrics must repeat exactly between two runs with one seed: they are
// counts of generated inputs and ranks, not timings.
var exactMetrics = []string{"tsdb.series", "tsdb.samples", "bench.schedule_hash", "bench.cause_rank_max"}

// runAgree runs the untraced pass of every workload as two independent
// sets on this build and compares them: each end-to-end metric must agree
// within its own bound, and the exact metrics must match. It returns the
// process exit code.
func runAgree(o options) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -agree needs BENCHMARK.json in the working directory:", err)
		return 2
	}
	o.trace = 0
	var sets [2][]*result
	for set := range sets {
		for _, w := range workloads {
			res, err := runOne(w, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.correct() {
				_ = res.print(os.Stdout)
				return 1
			}
			sets[set] = append(sets[set], res)
		}
	}
	bad := 0
	fmt.Printf("%-16s %-26s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "rel.diff", "bound")
	for i, w := range workloads {
		a, b := sets[0][i], sets[1][i]
		for _, m := range spec.EndToEnd {
			va, vb := a.values[m.Name], b.values[m.Name]
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-26s %14.6g %14.6g %9.4f %7.2f%s\n", w.name, m.Name, va, vb, diff, m.Bound, verdict)
		}
		for _, name := range exactMetrics {
			va, vb := a.values[name], b.values[name]
			verdict := ""
			if va != vb {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-26s %14.10g %14.10g %9s %7s%s\n", w.name, name, va, vb, "exact", "0", verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric(s) disagree between two runs of the same build\n", bad)
		return 1
	}
	fmt.Println("both sets agree within every bound")
	return 0
}
