// Package timeseries defines the time series model shared by the whole
// system: a Series is a one-dimensional metric (name + key/value tags +
// timestamped samples) and a Frame is a set of series aligned onto a common
// time grid, which is the dense representation ExplainIt! regresses over.
package timeseries

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Tags is the key/value annotation set attached to a metric, e.g.
// {host: datanode-1, type: read_latency}.
type Tags map[string]string

// Clone returns a copy of the tag set. A nil receiver yields an empty map.
func (t Tags) Clone() Tags {
	out := make(Tags, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// String renders tags in a canonical sorted "{k=v,k=v}" form, so that equal
// tag sets always render identically (used for grouping and display).
func (t Tags) String() string {
	if len(t) == 0 {
		return "{}"
	}
	var b strings.Builder
	t.writeTo(&b, "")
	return b.String()
}

// writeTo writes prefix followed by t's String rendering onto b, growing b
// once for both.
func (t Tags) writeTo(b *strings.Builder, prefix string) {
	if len(t) == 0 {
		b.Grow(len(prefix) + 2)
		b.WriteString(prefix)
		b.WriteString("{}")
		return
	}
	var buf [8]string // keeps the sort off the heap for typical tag sets
	keys := buf[:0]
	size := len(prefix) + 1 // the braces, less one separator
	for k, v := range t {
		keys = append(keys, k)
		size += len(k) + len(v) + 2
	}
	slices.Sort(keys)
	b.Grow(size)
	b.WriteString(prefix)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(t[k])
	}
	b.WriteByte('}')
}

// Matches reports whether every key/value pair in filter is present in t.
func (t Tags) Matches(filter Tags) bool {
	for k, v := range filter {
		if t[k] != v {
			return false
		}
	}
	return true
}

// Sample is a single timestamped observation.
type Sample struct {
	TS    time.Time
	Value float64
}

// Series is a one-dimensional metric: what the paper calls a "metric".
type Series struct {
	Name    string
	Tags    Tags
	Samples []Sample
}

// ID returns a canonical identifier "name{k=v,...}" for the series.
func (s *Series) ID() string {
	var b strings.Builder
	s.Tags.writeTo(&b, s.Name)
	return b.String()
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Sort orders samples by timestamp (stable) in place.
func (s *Series) Sort() {
	sort.SliceStable(s.Samples, func(i, j int) bool {
		return s.Samples[i].TS.Before(s.Samples[j].TS)
	})
}

// Append adds a sample; samples may arrive out of order and be sorted later.
func (s *Series) Append(ts time.Time, v float64) {
	s.Samples = append(s.Samples, Sample{TS: ts, Value: v})
}

// TimeRange is a half-open interval [From, To).
type TimeRange struct {
	From, To time.Time
}

// Contains reports whether ts falls in the half-open interval.
func (r TimeRange) Contains(ts time.Time) bool {
	return !ts.Before(r.From) && ts.Before(r.To)
}

// Duration returns To - From.
func (r TimeRange) Duration() time.Duration { return r.To.Sub(r.From) }

// IsZero reports whether the range is unset.
func (r TimeRange) IsZero() bool { return r.From.IsZero() && r.To.IsZero() }

func (r TimeRange) String() string {
	return fmt.Sprintf("[%s, %s)", r.From.Format(time.RFC3339), r.To.Format(time.RFC3339))
}

// Slice returns the samples of s falling inside the range, assuming the
// series is sorted by time. An inverted range (To before From) is empty.
func (s *Series) Slice(r TimeRange) []Sample {
	lo := sort.Search(len(s.Samples), func(i int) bool { return !s.Samples[i].TS.Before(r.From) })
	hi := sort.Search(len(s.Samples), func(i int) bool { return !s.Samples[i].TS.Before(r.To) })
	if hi < lo {
		return nil
	}
	return s.Samples[lo:hi]
}

// ValueAt returns the sample value at exactly ts, if present (sorted series).
func (s *Series) ValueAt(ts time.Time) (float64, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return !s.Samples[i].TS.Before(ts) })
	if i < len(s.Samples) && s.Samples[i].TS.Equal(ts) {
		return s.Samples[i].Value, true
	}
	return 0, false
}

// Stats summarises a value slice.
type Stats struct {
	Count     int
	Mean, Std float64
	Min, Max  float64
}

// SummarizeValues computes summary statistics over vs, ignoring NaNs.
func SummarizeValues(vs []float64) Stats {
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		st.Count++
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	if st.Count == 0 {
		return Stats{}
	}
	st.Mean = sum / float64(st.Count)
	var ss float64
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		d := v - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(st.Count))
	return st
}
