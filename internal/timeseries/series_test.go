package timeseries

import (
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

func TestSeriesIDAndSort(t *testing.T) {
	s := &Series{Name: "disk", Tags: Tags{"host": "dn-1"}}
	s.Append(t0.Add(2*time.Minute), 3)
	s.Append(t0, 1)
	s.Append(t0.Add(time.Minute), 2)
	s.Sort()
	if s.ID() != "disk{host=dn-1}" {
		t.Fatalf("id %q", s.ID())
	}
	for i := 0; i < 3; i++ {
		if s.Samples[i].Value != float64(i+1) {
			t.Fatalf("sample %d = %v", i, s.Samples[i])
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

func TestSeriesSlice(t *testing.T) {
	s := minuteSeries("m", nil, 0, 1, 2, 3, 4, 5)
	got := s.Slice(TimeRange{From: t0.Add(2 * time.Minute), To: t0.Add(5 * time.Minute)})
	if len(got) != 3 || got[0].Value != 2 || got[2].Value != 4 {
		t.Fatalf("slice %v", got)
	}
	// An inverted range holds nothing; its bounds used to cross and panic.
	if got := s.Slice(TimeRange{From: t0.Add(4 * time.Minute), To: t0.Add(time.Minute)}); len(got) != 0 {
		t.Fatalf("inverted range sliced %v", got)
	}
}

func TestValueAt(t *testing.T) {
	s := minuteSeries("m", nil, 10, 20)
	if v, ok := s.ValueAt(t0.Add(time.Minute)); !ok || v != 20 {
		t.Fatalf("got %v %v", v, ok)
	}
	if _, ok := s.ValueAt(t0.Add(30 * time.Second)); ok {
		t.Fatal("no sample at that instant")
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
