package main

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"explainit"
	"explainit/internal/simulator"
	"explainit/internal/storage"
	"explainit/internal/tsdb"
)

// ingest_durable: the write path. Two monitoring agents push batches into
// a four-shard durable store under the default fsync policy; tsdb routing
// and indexing and the storage engine's WAL group commit, compaction and
// recovery do all the work and the ranking engine does none. An engine
// optimisation must leave this workload unchanged, and a read-side gain
// paid for with write cost or disk space shows here.

type ingestSizes struct {
	metrics, hosts int     // series = metrics x hosts
	batch          int     // observations per PutBatch
	preload        int     // batches put during set-up
	rate           float64 // batches due per second in the window
	reopens        int     // Close -> OpenShards cycles after the window
}

func ingestDurableSizes(smoke bool) ingestSizes {
	if smoke {
		return ingestSizes{metrics: 40, hosts: 5, batch: 128, preload: 4, rate: 100, reopens: 2}
	}
	// Preload covers the 20 000 series six times over, so the window
	// measures steady-state appends, not series creation, and set-up is long
	// enough to time. Seven reopens, because one reopen of the same store
	// varies by a fifth on this box and refresh_ms is their median. The
	// rate is a bit over a quarter of what the box sustains in a closed loop
	// (README.md, "Calibration"): this box's speed wanders, and with less
	// headroom a slow stretch turns the open loop into a growing queue.
	return ingestSizes{metrics: 2000, hosts: 10, batch: 2048, preload: 64, rate: 80, reopens: 7}
}

const (
	// ingestWriters is how many agent connections deliver batches at once.
	ingestWriters = 2
	ingestShards  = 4
	// ingestTail: a couple of thousand batches fit the window.
	ingestTail = 99
	// ingestStep is how far timestamps advance per pass over the series.
	ingestStep = 10 * time.Second
)

// ingestSource generates the agents' batches from the seed. Batch k is a
// pure function of k — the next `batch` series in a seed-shuffled order,
// stamped with the pass they belong to — so any dispatcher can build any
// batch and two runs with one seed put identical data.
type ingestSource struct {
	series []explainit.Observation // templates: metric and tags, shuffled
	values []float64
	batch  int
}

func newIngestSource(seed int64, sizes ingestSizes) *ingestSource {
	rng := rand.New(rand.NewSource(seed))
	src := &ingestSource{values: make([]float64, 1<<16), batch: sizes.batch}
	for m := 0; m < sizes.metrics; m++ {
		for h := 0; h < sizes.hosts; h++ {
			src.series = append(src.series, explainit.Observation{
				Metric: fmt.Sprintf("agent_metric_%04d", m),
				Tags:   explainit.Tags{"host": fmt.Sprintf("h%03d", h)},
			})
		}
	}
	rng.Shuffle(len(src.series), func(i, j int) { src.series[i], src.series[j] = src.series[j], src.series[i] })
	for j := range src.values {
		src.values[j] = 100 * rng.Float64()
	}
	return src
}

// fill writes batch k into buf.
func (src *ingestSource) fill(buf []explainit.Observation, k int) {
	first := k * src.batch
	for i := range buf {
		n := first + i
		tmpl := src.series[n%len(src.series)]
		buf[i] = explainit.Observation{
			Metric: tmpl.Metric,
			Tags:   tmpl.Tags,
			At:     simulator.SimStart.Add(time.Duration(n/len(src.series)) * ingestStep),
			Value:  src.values[n%len(src.values)],
		}
	}
}

// hashInto folds the series order and value stream into the schedule hash.
func (src *ingestSource) hashInto(h *scheduleHash) {
	for _, s := range src.series {
		h.add(s.Metric, s.Tags["host"])
	}
	h.add(src.values[0], src.values[len(src.values)-1])
}

// ingestState is one opened store plus the source feeding it.
type ingestState struct {
	dir    string
	client *explainit.Client
	src    *ingestSource
	bufs   [ingestWriters][]explainit.Observation
	next   int          // first batch index the window will send
	acked  atomic.Int64 // samples whose PutBatch returned nil
}

func newIngestState(rc *runCtx, sizes ingestSizes) (*ingestState, error) {
	dir, err := rc.scratchDir("ingest")
	if err != nil {
		return nil, err
	}
	c, err := explainit.OpenShards(dir, ingestShards)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st := &ingestState{dir: dir, client: c, src: newIngestSource(rc.seed, sizes)}
	for i := range st.bufs {
		st.bufs[i] = make([]explainit.Observation, sizes.batch)
	}
	for ; st.next < sizes.preload; st.next++ {
		if err := st.put(0, st.next); err != nil {
			st.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return st, nil
}

// put sends batch k from the given writer's buffer.
func (st *ingestState) put(writer, k int) error {
	buf := st.bufs[writer]
	st.src.fill(buf, k)
	if err := st.client.PutBatch(buf); err != nil {
		return err
	}
	st.acked.Add(int64(len(buf)))
	return nil
}

func (st *ingestState) close() {
	_ = st.client.Close()
	os.RemoveAll(st.dir)
}

// dirUsage sums the files under dir by kind.
type dirUsage struct {
	total            int64
	segments, blocks int
}

func measureDir(dir string) (dirUsage, error) {
	var u dirUsage
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			// The compactor deletes sealed segments while we walk.
			return nil
		}
		u.total += info.Size()
		switch {
		case strings.HasSuffix(d.Name(), ".seg"):
			u.segments++
		case strings.HasSuffix(d.Name(), ".blk"):
			u.blocks++
		}
		return nil
	})
	return u, err
}

// copyTree copies src to dst the way a crash would freeze it, without
// stopping the compactor: WAL segments first, blocks second. A compaction
// writes its block before it deletes the segments the block covers, so a
// segment that vanishes during the first pass has its block listed by the
// second; a segment copied together with its block is skipped on open by
// the block's checkpoint.
func copyTree(src, dst string) error {
	pass := func(blocks bool) error {
		return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) {
					return nil
				}
				return err
			}
			rel, err := filepath.Rel(src, path)
			if err != nil {
				return err
			}
			target := filepath.Join(dst, rel)
			if d.IsDir() {
				return os.MkdirAll(target, 0o755)
			}
			if strings.HasSuffix(d.Name(), ".blk") != blocks {
				return nil
			}
			return copyFile(path, target)
		})
	}
	if err := pass(false); err != nil {
		return err
	}
	return pass(true)
}

// copyFile copies one file; a source the compactor has just removed is not
// an error.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// checkCrashImage copies the open, unflushed data directory and reopens
// the copy: every sample acknowledged before the copy must be there. This
// is a copy-based crash image — the sandbox cannot drop the OS cache, so
// it proves the files are self-sufficient, not that they reached the disk.
func (st *ingestState) checkCrashImage(rc *runCtx) error {
	acked := st.acked.Load()
	image, err := rc.scratchDir("crash-image")
	if err != nil {
		return err
	}
	defer os.RemoveAll(image)
	if err := copyTree(st.dir, image); err != nil {
		return fmt.Errorf("copy crash image: %w", err)
	}
	c, err := explainit.OpenShards(image, ingestShards)
	if err != nil {
		rc.res.failCheck("crash image does not reopen: %v", err)
		return nil
	}
	defer c.Close()
	rc.res.attempted++
	if got := int64(c.NumSamples()); got < acked {
		rc.res.failed++
		rc.res.failCheck("crash image holds %d samples, %d were acknowledged before the copy", got, acked)
	}
	rc.res.note("crash image: copy of the unflushed data dir reopened with every acknowledged sample (copy-based; the OS cache cannot be dropped here)")
	return nil
}

func runIngestDurable(rc *runCtx) error {
	sizes := ingestDurableSizes(rc.smoke)
	var st *ingestState
	teardown, err := rc.timeSetup(func() (func(), error) {
		var err error
		if st, err = newIngestState(rc, sizes); err != nil {
			return nil, err
		}
		return st.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	r := rc.res
	r.note("fsync policy: storage.SyncBatch (a batch is durable when PutBatch returns); %d shards, %d writers, %d observations per batch", ingestShards, ingestWriters, sizes.batch)
	r.set("tsdb.series", float64(st.client.NumSeries()))
	r.set("tsdb.samples", float64(st.client.NumSamples()))
	hash := newScheduleHash()
	st.src.hashInto(hash)
	schedule := fixedRate(rc.window, sizes.rate, 0, st.next)
	hash.add(len(schedule), schedule[len(schedule)-1].due)
	r.set("bench.schedule_hash", hash.value())

	// While the window runs, a sampler lists the data directory so block
	// and segment counts are seen at their peak, not only at the end.
	var peakSegments, peakBlocks int
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	if rc.traced() {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if u, err := measureDir(st.dir); err == nil {
						peakSegments, peakBlocks = max(peakSegments, u.segments), max(peakBlocks, u.blocks)
					}
				}
			}
		}()
	}
	writeBefore, ioOK := procWriteBytes()
	ackedBefore := st.acked.Load()
	before := readProcStats()
	samples, elapsed := rc.openLoop(ingestWriters, schedule,
		func(openOp) string { return "explainit.PutBatch" },
		func(op openOp, writer, _, _ int) error { return st.put(writer, op.arg) })
	after := readProcStats()
	writeAfter, ioStillOK := procWriteBytes()
	close(stopSampler)
	samplerDone.Wait()
	windowSamples := st.acked.Load() - ackedBefore
	sum := summarizeOpen(samples, func(openOp) bool { return true })
	r.attempted, r.failed = sum.attempted, sum.failed
	rc.setLatencyMetrics(sum.latencyMS, ingestTail)
	r.set("work_per_s", float64(windowSamples)/elapsed.Seconds())
	r.note("op = Client.PutBatch acknowledged, timed from its due time; open loop at %g batches/s over %d connections; work = samples acknowledged", sizes.rate, ingestWriters)
	r.set("bench.samples", float64(len(sum.latencyMS)))
	r.set("bench.late_p95_ms", percentile(sum.lateMS, 95))
	r.set("tsdb.putbatch_p50_ms", percentile(sum.latencyMS, 50))
	r.set("tsdb.putbatch_p99_ms", percentile(sum.latencyMS, supportedPercentile(len(sum.latencyMS), 99)))
	r.set("tsdb.putbatch_max_ms", percentile(sum.latencyMS, 100))
	rc.setProcessMetrics(before, after, sum.attempted, sum.overhead)

	if err := st.checkCrashImage(rc); err != nil {
		return err
	}

	id := rc.opID()
	root := rc.tr.start(id, 0, "bench.flush")
	flush := rc.tr.call(id, root, "explainit.Flush", func() { err = st.client.Flush() })
	rc.tr.end(root)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	usage, err := measureDir(st.dir)
	if err != nil {
		return err
	}
	acked := st.acked.Load()
	r.set("space_bytes_per_sample", float64(usage.total)/float64(acked))
	r.set("storage.flush_ms", ms(flush))
	r.set("storage.blocks_written", float64(max(peakBlocks, usage.blocks)))
	r.set("storage.wal_segments_peak", float64(max(peakSegments, usage.segments)))
	if ioOK && ioStillOK {
		r.set("storage.disk_write_bytes_per_sample", float64(writeAfter-writeBefore)/float64(windowSamples))
	} else {
		r.note("storage.disk_write_bytes_per_sample omitted: /proc/self/io is unreadable")
	}

	// Restart: how long until the store answers again, and is every
	// acknowledged sample still there.
	var reopen []float64
	for i := 0; i < sizes.reopens; i++ {
		// Each reopen builds a whole new in-memory store and orphans the
		// last; collect it first, so every reopen starts from the same heap.
		runtime.GC()
		id := rc.opID()
		root := rc.tr.start(id, 0, "bench.reopen")
		begin := time.Now()
		rc.tr.call(id, root, "explainit.Close", func() { err = st.client.Close() })
		if err != nil {
			return fmt.Errorf("close before reopen %d: %w", i, err)
		}
		var c *explainit.Client
		rc.tr.call(id, root, "explainit.OpenShards", func() { c, err = explainit.OpenShards(st.dir, ingestShards) })
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i, err)
		}
		reopen = append(reopen, ms(time.Since(begin)))
		rc.tr.end(root)
		st.client = c
		r.attempted++
		if got := int64(c.NumSamples()); got != acked {
			r.failed++
			r.failCheck("reopen %d: store holds %d samples, %d were acknowledged", i, got, acked)
		}
	}
	r.setN("refresh_ms", median(reopen), len(reopen))
	r.note("refresh = Close -> OpenShards of the flushed store; space = bytes under the data dir after Flush per acknowledged sample")

	if rc.traced() {
		return ingestProbes(rc, sizes)
	}
	return nil
}

// ingestProbes replays the agents' batches, regenerated from the seed,
// into the layers under the facade: an in-memory tsdb (routing and index
// cost without storage) and a bare storage.Store (WAL and block cost
// without tsdb).
func ingestProbes(rc *runCtx, sizes ingestSizes) error {
	r, tr := rc.res, rc.tr
	batches := 64
	if rc.smoke {
		batches = 8
	}
	src := newIngestSource(rc.seed, sizes)
	obs := make([]explainit.Observation, sizes.batch)
	records := func(k int) []tsdb.Record {
		src.fill(obs, k)
		recs := make([]tsdb.Record, len(obs))
		for i, o := range obs {
			recs[i] = tsdb.Record{Metric: o.Metric, Tags: o.Tags, TS: o.At, Value: o.Value}
		}
		return recs
	}
	id := rc.opID()
	root := tr.start(id, 0, "bench.probe/ingest")
	defer tr.end(root)

	mem := tsdb.New()
	var err error
	var memTime time.Duration
	for i := 0; i < batches && err == nil; i++ {
		recs := records(i)
		memTime += tr.call(id, root, "tsdb.PutBatch", func() { err = mem.PutBatch(recs) })
	}
	if err != nil {
		return fmt.Errorf("probe mem put: %w", err)
	}
	n := batches * sizes.batch
	r.set("tsdb.mem_put_samples_per_s", float64(n)/memTime.Seconds())
	_, max, _ := mem.Bounds()
	full := tsdb.Query{}
	full.Range.From, full.Range.To = simulator.SimStart, max.Add(time.Second)
	tr.call(id, root, spanScanFull, func() { _, err = mem.Run(full) })
	if err != nil {
		return fmt.Errorf("probe scan: %w", err)
	}
	glob := full
	glob.NamePattern = "agent_metric_000*"
	tr.call(id, root, spanScanGlob, func() { _, err = mem.Run(glob) })
	if err != nil {
		return fmt.Errorf("probe glob scan: %w", err)
	}
	r.set("tsdb.scan_full_ms", tr.meanMS(spanScanFull))
	r.set("tsdb.scan_glob_ms", tr.meanMS(spanScanGlob))

	dir, err := rc.scratchDir("storage-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// No background compaction: the WAL then holds exactly what was
	// appended, and Flush turns exactly that into blocks.
	opts := storage.Options{NoBackgroundCompaction: true}
	store, err := storage.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("probe storage open: %w", err)
	}
	for i := 0; i < batches && err == nil; i++ {
		recs := records(i)
		tr.call(id, root, "storage.Append", func() { err = store.Append(recs) })
	}
	if err != nil {
		store.Close()
		return fmt.Errorf("probe storage append: %w", err)
	}
	r.set("storage.append_p50_ms", median(durationsMS(tr.durations("storage.Append"))))
	if st, err := store.Stats(); err == nil {
		r.set("storage.wal_bytes_per_sample", float64(st.WALBytes)/float64(n))
	}
	// Close without Flush leaves the WAL in place; reopening replays it.
	if err := store.Close(); err != nil {
		return fmt.Errorf("probe storage close: %w", err)
	}
	replayed := 0
	tr.call(id, root, "storage.Open+Replay", func() {
		if store, err = storage.Open(dir, opts); err != nil {
			return
		}
		err = store.Replay(func(storage.Record) error { replayed++; return nil })
	})
	if err != nil {
		return fmt.Errorf("probe storage replay: %w", err)
	}
	r.set("storage.replay_ms", tr.meanMS("storage.Open+Replay"))
	if replayed != n {
		r.failCheck("storage probe replayed %d records, appended %d", replayed, n)
	}
	tr.call(id, root, "storage.Flush", func() { err = store.Flush() })
	if err != nil {
		store.Close()
		return fmt.Errorf("probe storage flush: %w", err)
	}
	if st, err := store.Stats(); err == nil {
		r.set("storage.block_bytes_per_sample", float64(st.BlockBytes)/float64(n))
	}
	return store.Close()
}
