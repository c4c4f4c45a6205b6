package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"explainit"
	"explainit/internal/simulator"
	ts "explainit/internal/timeseries"
)

// seriesKey identifies one generated series, so later phases can append
// samples to it without keeping the generated data alive.
type seriesKey struct {
	metric string
	tags   explainit.Tags
	last   float64
}

// dataset describes what set-up loaded into a client.
type dataset struct {
	sc        *simulator.Scenario // ground truth; Series is empty (sink mode)
	keys      []seriesKey
	samples   int
	generateS float64 // share of set-up that is the generator, not the system
}

// putChunk is the PutBatch size set-up loads with.
const putChunk = 65536

// loadStress generates cfg's scenario and streams it into c through the
// facade's PutBatch. The generator runs in sink mode, so the data never
// exists twice and the program under test sees only generated inputs.
func loadStress(c *explainit.Client, cfg simulator.StressConfig) (*dataset, error) {
	ds := &dataset{}
	batch := make([]explainit.Observation, 0, putChunk)
	var putTime time.Duration
	var putErr error
	flush := func() {
		if len(batch) == 0 || putErr != nil {
			return
		}
		t0 := time.Now()
		putErr = c.PutBatch(batch)
		putTime += time.Since(t0)
		batch = batch[:0]
	}
	cfg.Sink = func(s *ts.Series) {
		tags := explainit.Tags(s.Tags)
		for _, smp := range s.Samples {
			batch = append(batch, explainit.Observation{Metric: s.Name, Tags: tags, At: smp.TS, Value: smp.Value})
			if len(batch) == putChunk {
				flush()
			}
		}
		ds.samples += len(s.Samples)
		ds.keys = append(ds.keys, seriesKey{metric: s.Name, tags: tags, last: s.Samples[len(s.Samples)-1].Value})
	}
	begin := time.Now()
	ds.sc = simulator.StressScenario(cfg)
	flush()
	if putErr != nil {
		return nil, fmt.Errorf("load: %w", putErr)
	}
	ds.generateS = (time.Since(begin) - putTime).Seconds()
	return ds, nil
}

// appendPoint builds one new grid point for every series, k steps past the
// end of the generated range: each series continues as a small random walk
// from its last value.
func (ds *dataset) appendPoint(rng *rand.Rand, k int) []explainit.Observation {
	at := ds.sc.Range.To.Add(time.Duration(k) * ds.sc.Step)
	out := make([]explainit.Observation, len(ds.keys))
	for i := range ds.keys {
		key := &ds.keys[i]
		key.last += 0.1 * rng.NormFloat64()
		out[i] = explainit.Observation{Metric: key.metric, Tags: key.tags, At: at, Value: key.last}
	}
	return out
}

// scheduleHash folds a generated schedule into the 32 bits a float64
// carries exactly; the same seed must give the same hash.
type scheduleHash struct{ h hash.Hash64 }

func newScheduleHash() *scheduleHash { return &scheduleHash{h: fnv.New64a()} }

func (s *scheduleHash) add(parts ...any) { fmt.Fprintln(s.h, parts...) }

func (s *scheduleHash) value() float64 { return float64(s.h.Sum64() & 0xFFFFFFFF) }

// rotation is a seed-drawn sequence over a pool of n items that closed-loop
// workloads cycle through.
func rotation(rng *rand.Rand, n, length int) []int {
	out := make([]int, length)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
