package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSupportedPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{200, 95, 95},  // 190th of 200: ten beyond
		{199, 95, 90},  // 190th of 199: nine beyond p95, so p90
		{100, 90, 90},  // 90th of 100: ten beyond
		{99, 90, 75},   // nine beyond p90
		{1000, 99, 99}, // ten beyond
		{999, 99, 95},  // nine beyond p99
		{1000, 95, 95}, // never above what was asked for
		{20, 99, 50},   // 10th of 20: ten beyond the median
		{19, 99, 50},   // nothing qualifies: the median is the floor
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 100: 100} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestSelfTimeSubtractsNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 2, Op: 1, Name: "a1", Start: 15, End: 20}, // nested under a
		{ID: 5, Parent: 1, Op: 1, Name: "c", Start: 90, End: 120}, // overhangs the root by 20
		{ID: 6, Parent: 1, Op: 1, Name: "d", Start: 35, End: 38},  // wholly inside a and b
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 50 - 10, // a∪b∪d covers [10,60], c covers [90,100] after clipping
		2: 30 - 5,
		3: 30,
		4: 5,
		5: 30,
		6: 3,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerRecordsAnOpWholeOrNotAtAll(t *testing.T) {
	tr := newTracer()
	ran := 0
	tr.call(1, 0, "child-of-untraced-op", func() { ran++ })
	root := tr.start(2, 0, "root")
	tr.call(2, root, "child", func() { ran++ })
	tr.end(root)
	if ran != 2 {
		t.Fatalf("call must always run fn; ran %d of 2", ran)
	}
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 2 {
		t.Fatalf("want the root and its child only, got %+v", tr.spans)
	}
	var none *tracer
	none.call(3, 1, "nil tracer", func() { ran++ })
	none.end(none.start(3, 0, "nil"))
	if ran != 3 {
		t.Fatal("a nil tracer must still run fn")
	}
}

func TestOpenLoopTimesFromDueTimeNotSendTime(t *testing.T) {
	rc := &runCtx{res: newResult("test", false)}
	schedule := []openOp{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	const service = 50 * time.Millisecond
	samples, _ := rc.openLoop(1, schedule, func(openOp) string { return "op" },
		func(openOp, int, int, int) error { time.Sleep(service); return nil })
	// One dispatcher serves the ops back to back: the second is sent 40 ms
	// after it was due and completes 90 ms after it was due. Timed from
	// when it was sent it would read 50 ms and hide the stall.
	second := samples[1]
	if second.late < 35*time.Millisecond {
		t.Errorf("second op started %v after its due time, want about 40ms", second.late)
	}
	if second.latency < 85*time.Millisecond {
		t.Errorf("second op latency %v, want about 90ms measured from its due time", second.latency)
	}
	if got := second.latency - second.late; got < service-5*time.Millisecond || got > service+40*time.Millisecond {
		t.Errorf("latency minus lateness = %v, want about the %v service time", got, service)
	}
	third := samples[2]
	if third.latency < 125*time.Millisecond {
		t.Errorf("third op latency %v, want about 130ms: the stall is charged to every op it delays", third.latency)
	}
}

func TestOpenLoopFailsOpsItCannotStartInTime(t *testing.T) {
	rc := &runCtx{res: newResult("test", false)}
	ran := 0
	// Due an hour ago: the drain grace ran out long before the op's turn.
	samples, _ := rc.openLoop(1, []openOp{{due: -time.Hour}}, func(openOp) string { return "op" },
		func(openOp, int, int, int) error { ran++; return nil })
	if ran != 0 || !samples[0].failed {
		t.Fatalf("an op past the drain grace must fail without running: ran=%d sample=%+v", ran, samples[0])
	}
}

// scheduleHashes returns the hash of every generated schedule for a seed.
func scheduleHashes(seed int64) map[string]float64 {
	out := map[string]float64{}
	h := newScheduleHash()
	for _, i := range rotation(rand.New(rand.NewSource(seed)), 4, 4096) {
		h.add(i)
	}
	out["rotation"] = h.value()
	h = newScheduleHash()
	newIngestSource(seed, ingestDurableSizes(true)).hashInto(h)
	out["ingest"] = h.value()
	h = newScheduleHash()
	for _, op := range readSchedule(rand.New(rand.NewSource(seed)), serveMixedSizes(true), time.Second, 20, 8) {
		h.add(int64(op.due), op.kind, op.arg)
	}
	out["serve"] = h.value()
	return out
}

func TestSchedulesAreSeeded(t *testing.T) {
	a, again, b := scheduleHashes(1), scheduleHashes(1), scheduleHashes(2)
	for name := range a {
		if a[name] != again[name] {
			t.Errorf("%s: two generations with one seed hash %v and %v", name, a[name], again[name])
		}
		if a[name] == b[name] {
			t.Errorf("%s: seeds 1 and 2 give the same schedule hash %v", name, a[name])
		}
	}
}

// unitsByName indexes a declared metric list.
func unitsByName(list []specMetric) map[string]string {
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// TestSmokeRunsEveryWorkloadAndEmitsEveryDeclaredMetric runs all four
// workloads end to end at the smoke sizes, untraced and traced, and holds
// the output against BENCHMARK.json: a renamed facade function breaks this
// build, and a renamed metric breaks this test, not the next perf PR.
func TestSmokeRunsEveryWorkloadAndEmitsEveryDeclaredMetric(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := [2]map[string]string{unitsByName(spec.EndToEnd), unitsByName(spec.PerLayer)}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, driver workloads %v", names, have)
	}

	out := t.TempDir()
	hashes := map[string]float64{}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := runOne(w, options{seed: 1, seconds: 0.6, trace: trace, smoke: true, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%d: not correct: failed=%d checks=%v", w.name, trace, res.failed, res.checks)
			}
			if res.attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d ops", w.name, trace, res.attempted)
			}
			line := res.line()
			for name, unit := range declared[trace] {
				got, ok := line.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%d: declared metric %s not emitted", w.name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%d: %s has unit %q, BENCHMARK.json says %q", w.name, trace, name, got.Unit, unit)
				}
				if trace == 0 && ok && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, got.Value)
				}
			}
			for name := range line.Metrics {
				if _, ok := declared[trace][name]; !ok {
					t.Errorf("%s trace=%d: emits %s, which BENCHMARK.json does not declare", w.name, trace, name)
				}
			}
			if prev, seen := hashes[w.name]; seen && prev != res.values["bench.schedule_hash"] {
				t.Errorf("%s: schedule hash differs between two runs with one seed", w.name)
			}
			hashes[w.name] = res.values["bench.schedule_hash"]
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"), w.name)
	}
}

// checkTraceFile holds a workload's span file to what the per-layer
// metrics rest on: spans of one op share its id and nest under it, and the
// write-path workload never enters the engine's layers.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[int]span{}
	layers := map[string]bool{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
		layers[strings.SplitN(s.Name, ".", 2)[0]] = true
	}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) never ended", workload, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op {
			t.Errorf("%s: span %d (%s) of op %d hangs under span %d of op %d", workload, s.ID, s.Name, s.Op, s.Parent, p.Op)
		}
	}
	var seen []string
	for l := range layers {
		seen = append(seen, l)
	}
	sort.Strings(seen)
	engine := layers["core"] || layers["regress"] || layers["linalg"]
	switch workload {
	case "ingest_durable":
		if engine {
			t.Errorf("ingest_durable entered the engine's layers: %v", seen)
		}
		if !layers["storage"] || !layers["tsdb"] {
			t.Errorf("ingest_durable has no storage/tsdb spans: %v", seen)
		}
	case "rank_narrow", "session_wide":
		if !engine {
			t.Errorf("%s has no core/regress/linalg spans: %v", workload, seen)
		}
	case "serve_mixed":
		if !layers["apihttp"] || !layers["sqlexec"] {
			t.Errorf("serve_mixed has no apihttp/sqlexec spans: %v", seen)
		}
	}
}
