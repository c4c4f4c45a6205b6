package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runCtx carries one run of one workload: its seed and window, the tracer
// (nil when untraced), where scratch files may go, and the result being
// filled in.
type runCtx struct {
	seed   int64
	window time.Duration
	smoke  bool
	tr     *tracer
	outDir string
	res    *result
	// setupRepeats is how many times set-up is built and timed; setup_s is
	// the median, so one slow page-in does not move it.
	setupRepeats int
	nextOp       atomic.Int64
}

// setupTimedFor is how much set-up time a run collects before it trusts
// the median.
const setupTimedFor = 1500 * time.Millisecond

func (rc *runCtx) traced() bool { return rc.tr != nil }

// opID hands out the identifier that all spans of one op share.
func (rc *runCtx) opID() int { return int(rc.nextOp.Add(1)) }

// timeSetup builds the workload's state setupRepeats times, tearing down
// every build but the last, and records the median build time as setup_s.
// A set-up too short to time well (the durable store opens in a fifth of a
// second, a third of it noise) is built up to three times as often, until
// setupTimedFor has been spent on it. build returns the teardown of what
// it built.
func (rc *runCtx) timeSetup(build func() (teardown func(), err error)) (func(), error) {
	var times []float64
	var total float64
	var teardown func()
	for i := 0; ; i++ {
		short := rc.setupRepeats > 1 && total < setupTimedFor.Seconds() && i < 3*rc.setupRepeats
		if i >= rc.setupRepeats && !short {
			break
		}
		if teardown != nil {
			teardown()
			runtime.GC()
		}
		begin := time.Now()
		var err error
		teardown, err = build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(begin).Seconds())
		total += times[len(times)-1]
	}
	rc.res.setN("setup_s", median(times), len(times))
	return teardown, nil
}

// warmup runs op until it has run at least five times or three seconds
// have passed, so lazy set-up and caches are filled before the window.
func warmup(op func(i int) error) error {
	begin := time.Now()
	for i := 0; i < 5 && time.Since(begin) < 3*time.Second; i++ {
		if err := op(i); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// loopStats is what a measured window produced.
type loopStats struct {
	lat      []time.Duration // every completed op, in order
	tracedOp []bool          // whether the op ran while spans were recorded
	elapsed  time.Duration
	failed   int
}

func (s *loopStats) sortedMS() []float64 { return sortedCopy(durationsMS(s.lat)) }

// overheadRatio is the traced median over the untraced median. The traced
// run records spans for every other op, so both medians come from the same
// process, data and phase of the run.
func (s *loopStats) overheadRatio() float64 {
	var on, off []float64
	for i, d := range s.lat {
		if s.tracedOp[i] {
			on = append(on, ms(d))
		} else {
			off = append(off, ms(d))
		}
	}
	return medianRatio(on, off)
}

// medianRatio is median(on) / median(off), 0 when either is empty.
func medianRatio(on, off []float64) float64 {
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return ratio(median(on), median(off))
}

// closedLoop runs op for the window as one client: the next op is issued
// only when the previous one has returned. op receives its sequence number,
// the op's id and the id of its root span (0 when not recording) and
// returns an error for a failed or check-failing op. between runs untimed
// before each op with the time elapsed in the window.
func (rc *runCtx) closedLoop(rootName string, op func(seq, opID, root int) error, between func(elapsed time.Duration)) *loopStats {
	stats := &loopStats{}
	begin := time.Now()
	deadline := begin.Add(rc.window)
	for seq := 0; time.Now().Before(deadline); seq++ {
		between(time.Since(begin))
		id := rc.opID()
		recording := rc.tr != nil && seq%2 == 1
		root := 0
		if recording {
			root = rc.tr.start(id, 0, rootName)
		}
		t0 := time.Now()
		err := op(seq, id, root)
		d := time.Since(t0)
		rc.tr.end(root)
		if err != nil {
			stats.failed++
			rc.res.noteOpError(err)
		}
		stats.lat = append(stats.lat, d)
		stats.tracedOp = append(stats.tracedOp, recording)
	}
	stats.elapsed = time.Since(begin)
	return stats
}

// procStats is a snapshot of the process counters the facade-level metrics
// are deltas of.
type procStats struct {
	totalAlloc uint64
	gcPauseNS  uint64
	cpu        time.Duration // user + system time of the process
}

func readProcStats() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procStats{totalAlloc: m.TotalAlloc, gcPauseNS: m.PauseTotalNs, cpu: cpu}
}

// liveHeapBytes is the heap still reachable after a forced collection.
func liveHeapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setProcessMetrics fills the explainit.* metrics from the counters read
// before and after the window.
func (rc *runCtx) setProcessMetrics(before, after procStats, ops int, overhead float64) {
	r := rc.res
	r.set("explainit.alloc_mb_per_op", ratio(float64(after.totalAlloc-before.totalAlloc)/(1<<20), float64(ops)))
	r.set("explainit.gc_pause_ms", float64(after.gcPauseNS-before.gcPauseNS)/1e6)
	r.set("explainit.cpu_ms_per_op", ratio(ms(after.cpu-before.cpu), float64(ops)))
	r.set("explainit.trace_overhead_ratio", overhead)
	if kb, ok := procStatusKB("VmHWM"); ok {
		r.set("explainit.peak_rss_mb", float64(kb)/1024)
	} else {
		r.note("explainit.peak_rss_mb omitted: /proc/self/status has no VmHWM")
	}
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/self/status.
func procStatusKB(key string) (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == key+":" {
			n, err := strconv.ParseInt(fields[1], 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// procWriteBytes reads write_bytes from /proc/self/io: bytes this process
// caused to be sent to the storage layer.
func procWriteBytes() (int64, bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// setLatencyMetrics fills op_p50_ms and bench.op_tail_ms from the window's
// latencies. wantTail is the workload's fixed tail percentile; a run with
// too few samples for it (the smoke profile) reports a lower one and says
// so.
func (rc *runCtx) setLatencyMetrics(sorted []float64, wantTail float64) {
	r := rc.res
	r.setN("op_p50_ms", percentile(sorted, 50), len(sorted))
	p := supportedPercentile(len(sorted), wantTail)
	r.setN("bench.op_tail_ms", percentile(sorted, p), len(sorted))
	r.note("bench.op_tail_ms is p%g over %d samples (%d beyond it)", p, len(sorted), len(sorted)-rankIndex(len(sorted), p)-1)
}

// scratchDir makes a fresh directory under the output directory; the
// benchmark writes nowhere else.
func (rc *runCtx) scratchDir(name string) (string, error) {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(rc.outDir, name+"-")
}

// openOp is one entry of an open-loop schedule: what to do and when it is
// due, as an offset from the start of the window.
type openOp struct {
	due  time.Duration
	kind int // the workload's own op kind
	arg  int // the workload's own argument (statement index, batch index)
}

// openSample is one executed open-loop op.
type openSample struct {
	op      openOp
	latency time.Duration // completion minus due time
	late    time.Duration // start minus due time: how late the generator ran
	traced  bool
	failed  bool
}

// openDrainGrace is how long past the schedule's last due time a backlog
// may drain before the ops still queued are counted as failed.
const openDrainGrace = 3 * time.Second

// openLoop sends the schedule's ops at their due times whether or not
// earlier ones have completed, from at most `dispatchers` goroutines: an op
// whose turn comes while every dispatcher is busy starts late, and its
// latency still counts from when it was due, so a stall is charged to
// every request it delays. Ops not started within openDrainGrace of the
// last due time are failed without running. schedule must not be empty.
func (rc *runCtx) openLoop(dispatchers int, schedule []openOp, rootName func(openOp) string,
	exec func(op openOp, dispatcher, opID, root int) error) ([]openSample, time.Duration) {
	samples := make([]openSample, len(schedule))
	var next atomic.Int64
	begin := time.Now()
	cutoff := begin.Add(schedule[len(schedule)-1].due + openDrainGrace)
	var wg sync.WaitGroup
	for d := 0; d < dispatchers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(schedule) {
					return
				}
				op := schedule[i]
				due := begin.Add(op.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Now()
				if start.After(cutoff) {
					samples[i] = openSample{op: op, latency: start.Sub(due), late: start.Sub(due), failed: true}
					rc.res.noteOpError(fmt.Errorf("op %d not started within %v of the schedule's end", i, openDrainGrace))
					continue
				}
				id := rc.opID()
				recording := rc.tr != nil && i%2 == 1
				root := 0
				if recording {
					root = rc.tr.start(id, 0, rootName(op))
				}
				err := exec(op, d, id, root)
				end := time.Now()
				rc.tr.end(root)
				if err != nil {
					rc.res.noteOpError(err)
				}
				samples[i] = openSample{op: op, latency: end.Sub(due), late: start.Sub(due), traced: recording, failed: err != nil}
			}
		}(d)
	}
	wg.Wait()
	return samples, time.Since(begin)
}

// openSummary condenses the open-loop samples a filter selects.
type openSummary struct {
	latencyMS []float64 // sorted, from due time, completed ops only
	lateMS    []float64 // sorted
	attempted int
	failed    int
	overhead  float64 // traced median over untraced median
}

func summarizeOpen(samples []openSample, keep func(openOp) bool) openSummary {
	var sum openSummary
	var on, off []float64
	for _, s := range samples {
		if !keep(s.op) {
			continue
		}
		sum.attempted++
		sum.lateMS = append(sum.lateMS, ms(s.late))
		if s.failed {
			sum.failed++
			continue
		}
		sum.latencyMS = append(sum.latencyMS, ms(s.latency))
		if s.traced {
			on = append(on, ms(s.latency))
		} else {
			off = append(off, ms(s.latency))
		}
	}
	sort.Float64s(sum.latencyMS)
	sort.Float64s(sum.lateMS)
	sum.overhead = medianRatio(on, off)
	return sum
}

// fixedRate is an open-loop schedule of n-per-second ops of one kind over
// the window; arg counts up from firstArg.
func fixedRate(window time.Duration, perSecond float64, kind, firstArg int) []openOp {
	interval := time.Duration(float64(time.Second) / perSecond)
	var out []openOp
	for due := time.Duration(0); due < window; due += interval {
		out = append(out, openOp{due: due, kind: kind, arg: firstArg + len(out)})
	}
	return out
}
