package timeseries

import (
	"fmt"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func minuteSeries(name string, tags Tags, vals ...float64) *Series {
	s := &Series{Name: name, Tags: tags}
	for i, v := range vals {
		s.Append(t0.Add(time.Duration(i)*time.Minute), v)
	}
	return s
}

func TestTagsString(t *testing.T) {
	tags := Tags{"host": "dn-1", "type": "read"}
	if got := tags.String(); got != "{host=dn-1,type=read}" {
		t.Fatalf("got %q", got)
	}
	if got := (Tags{}).String(); got != "{}" {
		t.Fatalf("empty tags: %q", got)
	}
	var nilTags Tags
	if got := nilTags.String(); got != "{}" {
		t.Fatalf("nil tags: %q", got)
	}
}

func TestTagsMatches(t *testing.T) {
	tags := Tags{"host": "dn-1", "type": "read"}
	if !tags.Matches(Tags{"host": "dn-1"}) {
		t.Fatal("should match subset")
	}
	if tags.Matches(Tags{"host": "dn-2"}) {
		t.Fatal("should not match different value")
	}
	if !tags.Matches(nil) {
		t.Fatal("nil filter should match")
	}
}

func TestTagsClone(t *testing.T) {
	tags := Tags{"a": "1"}
	c := tags.Clone()
	c["a"] = "2"
	if tags["a"] != "1" {
		t.Fatal("clone must not alias")
	}
}

// TestSeriesIDAndSort: a series' ID, and the canonical order its samples
// are kept and summed in — by timestamp, then by value bits — so that
// duplicates of one timestamp (3, 3, NaN and -1 at +2m) land in one order
// whatever order they were appended in; Append reports each append that
// broke the order, a tie included.
func TestSeriesIDAndSort(t *testing.T) {
	s := &Series{Name: "disk", Tags: Tags{"host": "dn-1"}}
	if s.ID() != "disk{host=dn-1}" {
		t.Fatalf("id %q", s.ID())
	}
	s.Append(t0, 1)
	s.Append(t0.Add(2*time.Minute), 3)
	s.Append(t0.Add(2*time.Minute), -1)
	s.Append(t0.Add(time.Minute), 2)
	s.Append(t0.Add(2*time.Minute), math.NaN())
	s.Append(t0.Add(2*time.Minute), 3)
	const want = "[0:1 60:2 120:3 120:3 120:NaN 120:-1]"
	for n, order := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {3, 0, 4, 2, 5, 1}} {
		var c Columns
		var broke []int
		for k, i := range order {
			if !c.Append(s.Samples[i].TS.UnixNano(), s.Samples[i].Value) {
				broke = append(broke, k)
			}
		}
		if n == 0 && fmt.Sprint(broke) != "[3 5]" {
			t.Fatalf("appends %v reported out of order, want [3 5]", broke)
		}
		c.Sort()
		got := make([]string, c.Len())
		for k := range got {
			got[k] = fmt.Sprintf("%d:%v", (c.NS[k]-t0.UnixNano())/1e9, c.Val[k])
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("order %v: sorted %v, want %v", order, got, want)
		}
	}
}

func TestTimeRange(t *testing.T) {
	r := TimeRange{From: t0, To: t0.Add(10 * time.Minute)}
	if !r.Contains(t0) {
		t.Fatal("range must include From")
	}
	if r.Contains(t0.Add(10 * time.Minute)) {
		t.Fatal("range must exclude To")
	}
	if r.Duration() != 10*time.Minute {
		t.Fatal("duration")
	}
	if r.IsZero() {
		t.Fatal("not zero")
	}
	if !(TimeRange{}).IsZero() {
		t.Fatal("zero range")
	}
	if r.String() == "" {
		t.Fatal("string render")
	}
}

// TestSeriesSlice: Span bounds a series' sorted samples to a half-open
// range; an inverted range holds nothing, and a bound past the int64
// nanosecond range clamps instead of wrapping.
func TestSeriesSlice(t *testing.T) {
	var c Columns
	c.Load(minuteSeries("m", nil, 0, 1, 2, 3, 4, 5).Samples)
	if lo, hi := c.Span(TimeRange{From: t0.Add(2 * time.Minute), To: t0.Add(5 * time.Minute)}); lo != 2 || hi != 5 {
		t.Fatalf("span [%d, %d), want [2, 5)", lo, hi)
	}
	if lo, hi := c.Span(TimeRange{From: t0.Add(4 * time.Minute), To: t0.Add(time.Minute)}); lo != hi {
		t.Fatalf("inverted range spans [%d, %d)", lo, hi)
	}
	forever := TimeRange{From: time.Unix(-1<<62, 0), To: time.Unix(1<<62, 0)}
	if lo, hi := c.Span(forever); lo != 0 || hi != 6 {
		t.Fatalf("unbounded range spans [%d, %d), want [0, 6)", lo, hi)
	}
}

func TestSummarizeValues(t *testing.T) {
	st := SummarizeValues([]float64{1, 2, 3, math.NaN()})
	if st.Count != 3 || st.Mean != 2 || st.Min != 1 || st.Max != 3 {
		t.Fatalf("stats %+v", st)
	}
	if math.Abs(st.Std-math.Sqrt(2.0/3.0)) > 1e-12 {
		t.Fatalf("std %g", st.Std)
	}
	empty := SummarizeValues([]float64{math.NaN()})
	if empty.Count != 0 || empty.Mean != 0 {
		t.Fatalf("empty stats %+v", empty)
	}
}
