// Command benchmark is the repository's benchmark of record: four named
// workloads driven through the facade's public API, end-to-end metrics
// from an untraced run, per-layer metrics from a traced run whose spans
// the driver records around its own calls into each layer. See README.md.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (the contract BENCHMARK.json
// names); everything above it is for people.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"explainit/internal/buildinfo"
	"explainit/internal/obs"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(*runCtx) error
}

// workloads lists every workload, in the order a full run takes them.
var workloads = []workload{
	{"rank_narrow", runRankNarrow},
	{"session_wide", runSessionWide},
	{"ingest_durable", runIngestDurable},
	{"serve_mixed", runServeMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	agree    bool
	outDir   string
}

// runOne runs one workload once and returns its result; a non-nil error
// means the run could not complete, not that a check failed.
func runOne(w workload, o options) (*result, error) {
	// The shard count of in-memory stores comes from the environment; pin it
	// so a run does not depend on the caller's shell.
	os.Unsetenv("EXPLAINIT_SHARDS")
	rc := &runCtx{
		seed:         o.seed,
		window:       time.Duration(o.seconds * float64(time.Second)),
		smoke:        o.smoke,
		outDir:       o.outDir,
		res:          newResult(w.name, o.trace == 1),
		setupRepeats: 3,
	}
	if o.trace == 1 {
		rc.tr = newTracer()
	}
	if o.smoke || o.trace == 1 {
		rc.setupRepeats = 1
	}
	if err := w.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if rc.tr != nil {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := rc.tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name, o.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	rc.res.set("bench.fail_ratio", ratio(float64(rc.res.failed), float64(rc.res.attempted)))
	return rc.res, nil
}

// printEnvironment writes the header every run prints: what a reader
// needs to know before comparing two runs.
func printEnvironment(o options) {
	goVersion := fmt.Sprintf("go version %s %s/%s", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# %s | nproc=%d GOMAXPROCS=%d | fsync=SyncBatch (storage default) | internal/obs enabled=%v | commit=%s\n",
		goVersion, runtime.NumCPU(), runtime.GOMAXPROCS(0), obs.Enabled(), buildinfo.Commit)
	fmt.Printf("# seed=%d window=%gs trace=%d smoke=%v\n", o.seed, o.seconds, o.trace, o.smoke)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: rank_narrow, session_wide, ingest_durable or serve_mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for checking that everything still runs")
	flag.BoolVar(&o.agree, "agree", false, "run every workload's untraced pass twice and compare within the bounds")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files and scratch data")
	flag.Parse()
	if o.smoke && o.seconds > 1 {
		o.seconds = 1
	}
	printEnvironment(o)
	if o.agree {
		os.Exit(runAgree(o))
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := runOne(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}
