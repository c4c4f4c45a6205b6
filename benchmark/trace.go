package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the driver around the
// layer's public function. Spans of one op share Op; Parent is the id of
// the span that caused this one (0 for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; a run that would exceed it keeps
// the first maxSpans and counts the rest as dropped.
const maxSpans = 400000

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, so the untraced run shares the code path.
// The program under test is not instrumented: every span here starts and
// ends in the driver.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 when t is nil or full).
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call times fn and returns how long it took, recording it as a child span
// of parent. An op that was not given a root span (parent 0) records no
// children either, so an op is traced whole or not at all.
func (t *tracer) call(op, parent int, name string, fn func()) time.Duration {
	id := 0
	if parent != 0 {
		id = t.start(op, parent, name)
	}
	begin := time.Now()
	fn()
	d := time.Since(begin)
	t.end(id)
	return d
}

// durations returns the length of every finished span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// meanMS is the mean length in milliseconds of the spans called name, 0
// when the layer was never entered.
func (t *tracer) meanMS(name string) float64 { return mean(durationsMS(t.durations(name))) }

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children may overlap one another
// (parallel workers) or overhang the parent; the covered part is the union
// of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	byID := make(map[int]span, len(spans))
	children := make(map[int][]iv)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.Start
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Dropped  int                `json:"dropped_spans"`
	SelfMS   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

// write stores the spans and the per-name self-time totals at path.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	self := selfTimes(spans)
	byName := make(map[string]float64)
	for _, s := range spans {
		byName[s.Name] += float64(self[s.ID]) / 1e6
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Dropped: dropped, SelfMS: byName, Spans: spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
