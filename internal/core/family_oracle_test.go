package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"explainit/internal/sqlexec"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// The differential oracle for family materialisation: the per-family
// Align -> DropAllNaNColumns -> Interpolate -> Matrix pipeline the one-pass
// build replaced, kept as it was (grid by repeated time.Time addition,
// bucketing by time.Time subtraction, a NaN-initialised frame, a copy to
// drop columns, a fresh observation list per column, a final copy), except
// that each sample's membership of the half-open range is checked
// explicitly, so the oracle holds for unsorted series too, and that a
// series' samples are bucketed in canonical order (by timestamp, then by
// value bits), so a cell sums its samples — duplicates of one timestamp
// included — in one order whatever order they arrived in. On sorted input
// without duplicates that is the arrival order.
// BuildFamilies, BuildFamiliesFromStore and FamiliesFromRelation must
// reproduce it bit for bit on every input without monotonic clock
// readings.

func oracleTimeGrid(r ts.TimeRange, step time.Duration) []time.Time {
	if step <= 0 || !r.To.After(r.From) {
		return nil
	}
	n := int(r.To.Sub(r.From) / step)
	grid := make([]time.Time, 0, n)
	for at := r.From; at.Before(r.To); at = at.Add(step) {
		grid = append(grid, at)
	}
	return grid
}

func oracleAlign(series []*ts.Series, r ts.TimeRange, step time.Duration) (*ts.Frame, error) {
	if step <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive step %v", step)
	}
	grid := oracleTimeGrid(r, step)
	cols := make([]string, len(series))
	for j, s := range series {
		cols[j] = s.ID()
	}
	f := ts.NewFrame(grid, cols)
	if len(grid) == 0 {
		return f, nil
	}
	counts := make([]int, len(grid)*len(cols))
	for j, s := range series {
		for _, smp := range canonicalSamples(s.Samples) {
			if !r.Contains(smp.TS) {
				continue
			}
			i := int(smp.TS.Sub(r.From) / step)
			if i < 0 || i >= len(grid) {
				continue
			}
			idx := i*len(cols) + j
			if counts[idx] == 0 {
				f.Set(i, j, smp.Value)
			} else {
				f.Set(i, j, f.At(i, j)+smp.Value)
			}
			counts[idx]++
		}
	}
	for idx, c := range counts {
		if c > 1 {
			i, j := idx/len(cols), idx%len(cols)
			f.Set(i, j, f.At(i, j)/float64(c))
		}
	}
	return f, nil
}

// canonicalSamples returns a copy of samples sorted by timestamp, then by
// value bits.
func canonicalSamples(samples []ts.Sample) []ts.Sample {
	out := slices.Clone(samples)
	slices.SortFunc(out, func(a, b ts.Sample) int {
		if c := a.TS.Compare(b.TS); c != 0 {
			return c
		}
		return cmp.Compare(math.Float64bits(a.Value), math.Float64bits(b.Value))
	})
	return out
}

func oracleDropAllNaNColumns(f *ts.Frame) *ts.Frame {
	keep := make([]int, 0, f.NumCols())
	for j := 0; j < f.NumCols(); j++ {
		for i := 0; i < f.Rows(); i++ {
			if !math.IsNaN(f.At(i, j)) {
				keep = append(keep, j)
				break
			}
		}
	}
	if len(keep) == f.NumCols() {
		return f
	}
	cols := make([]string, len(keep))
	for nj, j := range keep {
		cols[nj] = f.Columns[j]
	}
	out := ts.NewFrame(f.Index, cols)
	for i := 0; i < f.Rows(); i++ {
		for nj, j := range keep {
			out.Set(i, nj, f.At(i, j))
		}
	}
	return out
}

func oracleInterpolate(f *ts.Frame) {
	n, c := f.Rows(), f.NumCols()
	for j := 0; j < c; j++ {
		obs := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if !math.IsNaN(f.At(i, j)) {
				obs = append(obs, i)
			}
		}
		if len(obs) == 0 {
			for i := 0; i < n; i++ {
				f.Set(i, j, 0)
			}
			continue
		}
		if len(obs) == n {
			continue
		}
		k := 0
		for i := 0; i < n; i++ {
			if !math.IsNaN(f.At(i, j)) {
				continue
			}
			for k+1 < len(obs) && obs[k+1] < i {
				k++
			}
			best := obs[k]
			if k+1 < len(obs) {
				next := obs[k+1]
				if absInt(next-i) < absInt(best-i) {
					best = next
				}
			}
			f.Set(i, j, f.At(best, j))
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// oracleFamilies materialises each named group with the old pipeline. On
// an alignment error it also returns the failing group's name.
func oracleFamilies(names []string, groups map[string][]*ts.Series, display func(string) string,
	r ts.TimeRange, step time.Duration) ([]*Family, string, error) {
	var families []*Family
	for _, name := range names {
		frame, err := oracleAlign(groups[name], r, step)
		if err != nil {
			return nil, name, err
		}
		frame = oracleDropAllNaNColumns(frame)
		if frame.NumCols() == 0 {
			continue
		}
		oracleInterpolate(frame)
		families = append(families, &Family{
			Name:    display(name),
			Columns: frame.Columns,
			Index:   frame.Index,
			Matrix:  frame.Matrix(),
		})
	}
	return families, "", nil
}

// oracleGroupSeries buckets series by family name in arrival order,
// dropping those groupBy maps to "", and returns the names sorted.
func oracleGroupSeries(series []*ts.Series, groupBy GroupFunc) ([]string, map[string][]*ts.Series) {
	groups := make(map[string][]*ts.Series)
	var names []string
	for _, s := range series {
		g := groupBy(s)
		if g == "" {
			continue
		}
		if _, ok := groups[g]; !ok {
			names = append(names, g)
		}
		groups[g] = append(groups[g], s)
	}
	sort.Strings(names)
	return names, groups
}

func oracleBuildFamilies(series []*ts.Series, groupBy GroupFunc, r ts.TimeRange, step time.Duration) ([]*Family, error) {
	names, groups := oracleGroupSeries(series, groupBy)
	fams, failed, err := oracleFamilies(names, groups, func(n string) string { return n }, r, step)
	if err != nil {
		return nil, fmt.Errorf("core: aligning family %q: %w", failed, err)
	}
	if fams == nil {
		fams = []*Family{}
	}
	return fams, nil
}

func oracleFamiliesFromRelation(rel *sqlexec.Relation, timeCol, keyCol string, r ts.TimeRange, step time.Duration) ([]*Family, error) {
	names, groups, err := pivotRelation(rel, timeCol, keyCol)
	if err != nil {
		return nil, err
	}
	fams, _, err := oracleFamilies(names, groups, func(n string) string {
		if n == "" {
			return "*"
		}
		return n
	}, r, step)
	return fams, err
}

// sameFamilies reports the first difference between two builds: family
// count, then per family Name, Columns, Index (struct equality) and Matrix
// (shape and bitwise data). It also requires every family of got to share
// one Index backing array.
func sameFamilies(got, want []*Family) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d families, oracle %d", len(got), len(want))
	}
	for k, g := range got {
		w := want[k]
		if g.Name != w.Name {
			return fmt.Errorf("family %d: name %q, oracle %q", k, g.Name, w.Name)
		}
		if !slices.Equal(g.Columns, w.Columns) {
			return fmt.Errorf("family %q: columns %q, oracle %q", g.Name, g.Columns, w.Columns)
		}
		if len(g.Index) != len(w.Index) {
			return fmt.Errorf("family %q: %d index entries, oracle %d", g.Name, len(g.Index), len(w.Index))
		}
		for i := range g.Index {
			if g.Index[i] != w.Index[i] {
				return fmt.Errorf("family %q: index[%d] %v, oracle %v", g.Name, i, g.Index[i], w.Index[i])
			}
		}
		if len(g.Index) > 0 && &g.Index[0] != &got[0].Index[0] {
			return fmt.Errorf("family %q does not share the build's grid", g.Name)
		}
		gm, wm := g.Matrix, w.Matrix
		if gm.Rows != wm.Rows || gm.Cols != wm.Cols || len(gm.Data) != len(wm.Data) {
			return fmt.Errorf("family %q: shape %dx%d, oracle %dx%d", g.Name, gm.Rows, gm.Cols, wm.Rows, wm.Cols)
		}
		for i := range gm.Data {
			if math.Float64bits(gm.Data[i]) != math.Float64bits(wm.Data[i]) {
				return fmt.Errorf("family %q: cell %d = %v (%#x), oracle %v (%#x)", g.Name, i,
					gm.Data[i], math.Float64bits(gm.Data[i]), wm.Data[i], math.Float64bits(wm.Data[i]))
			}
		}
	}
	return nil
}

// buildCase is one differential input: series of (offset-from-t0 seconds,
// value) samples over the range [t0, t0+span) at a step, all in seconds.
// It round-trips through the byte form FuzzBuildFamilies decodes, so every
// table case doubles as a seed.
type buildCase struct {
	step, span int
	series     []caseSeries
}

type caseSeries struct {
	name, host string // host "" means no host tag
	unsorted   bool   // keep arrival order instead of sorting
	samples    []caseSample
}

type caseSample struct {
	at int // seconds from t0
	v  float64
}

var (
	caseNames = []string{"disk", "cpu", "net"}
	caseHosts = []string{"", "dn-1", "dn-2", "dn-3"}
)

func indexOf(list []string, s string) byte {
	for i, v := range list {
		if v == s {
			return byte(i)
		}
	}
	panic("buildCase: unknown name or host " + s)
}

// encode renders the case as: step uint16, span int16, then per series
// name, host, unsorted and sample-count bytes followed by (int16 offset,
// float64 bits) per sample, all little-endian.
func (c buildCase) encode() []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(c.step))
	b = binary.LittleEndian.AppendUint16(b, uint16(int16(c.span)))
	for _, s := range c.series {
		var unsorted byte
		if s.unsorted {
			unsorted = 1
		}
		b = append(b, indexOf(caseNames, s.name), indexOf(caseHosts, s.host), unsorted, byte(len(s.samples)))
		for _, smp := range s.samples {
			b = binary.LittleEndian.AppendUint16(b, uint16(int16(smp.at)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(smp.v))
		}
	}
	return b
}

// maxCaseSeries and maxCaseSpan bound a decoded case, so a fuzz input's
// frames stay small and each execution fast.
const (
	maxCaseSeries = 16
	maxCaseSpan   = 3600
)

// decodeCase is encode's inverse on arbitrary bytes: indices wrap, a
// truncated tail ends the input, the span wraps at maxCaseSpan and series
// past maxCaseSeries are ignored.
func decodeCase(b []byte) buildCase {
	var c buildCase
	if len(b) < 4 {
		return c
	}
	c.step = int(binary.LittleEndian.Uint16(b))
	c.span = int(int16(binary.LittleEndian.Uint16(b[2:]))) % maxCaseSpan
	b = b[4:]
	for len(b) >= 4 && len(c.series) < maxCaseSeries {
		s := caseSeries{
			name:     caseNames[int(b[0])%len(caseNames)],
			host:     caseHosts[int(b[1])%len(caseHosts)],
			unsorted: b[2]&1 == 1,
		}
		n := int(b[3])
		b = b[4:]
		for ; n > 0 && len(b) >= 10; n-- {
			s.samples = append(s.samples, caseSample{
				at: int(int16(binary.LittleEndian.Uint16(b))),
				v:  math.Float64frombits(binary.LittleEndian.Uint64(b[2:])),
			})
			b = b[10:]
		}
		c.series = append(c.series, s)
	}
	return c
}

func (c buildCase) rangeStep() (ts.TimeRange, time.Duration) {
	return ts.TimeRange{From: t0, To: t0.Add(time.Duration(c.span) * time.Second)}, time.Duration(c.step) * time.Second
}

func (c buildCase) toSeries() []*ts.Series {
	out := make([]*ts.Series, 0, len(c.series))
	for _, cs := range c.series {
		s := &ts.Series{Name: cs.name, Tags: ts.Tags{}}
		if cs.host != "" {
			s.Tags["host"] = cs.host
		}
		for _, smp := range cs.samples {
			s.Append(t0.Add(time.Duration(smp.at)*time.Second), smp.v)
		}
		if !cs.unsorted {
			slices.SortStableFunc(s.Samples, func(a, b ts.Sample) int { return a.TS.Compare(b.TS) })
		}
		out = append(out, s)
	}
	return out
}

// toRelation renders the samples as rows (ts, host, disk, cpu, net): one
// row per sample, its value under its metric's column and NULL in the
// others, timestamps alternating between time and epoch-second cells.
func (c buildCase) toRelation() *sqlexec.Relation {
	rel := sqlexec.NewRelation(append([]string{"ts", "host"}, caseNames...)...)
	for _, cs := range c.series {
		for k, smp := range cs.samples {
			at := t0.Add(time.Duration(smp.at) * time.Second)
			row := make([]sqlexec.Value, len(rel.Cols))
			row[0] = sqlexec.TimeVal(at)
			if k%2 == 1 {
				row[0] = sqlexec.Number(float64(at.Unix()))
			}
			row[1] = sqlexec.Null()
			if cs.host != "" {
				row[1] = sqlexec.Str(cs.host)
			}
			for j, name := range caseNames {
				row[2+j] = sqlexec.Null()
				if name == cs.name {
					row[2+j] = sqlexec.Number(smp.v)
				}
			}
			rel.Rows = append(rel.Rows, row)
		}
	}
	return rel
}

// compareBuilds reports the first difference between a build and the
// oracle's: in the error (both or neither, same text) or in the families.
func compareBuilds(what string, got, want []*Family, gotErr, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("%s: error %q, oracle %q", what, gotErr, wantErr)
		}
		return nil
	}
	if err := sameFamilies(got, want); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// checkAgainstOracle runs every build path on one case — BuildFamilies by
// metric name and by host tag, FamiliesFromRelation keyed by host and
// unkeyed — and compares each with the oracle.
func checkAgainstOracle(c buildCase) error {
	r, step := c.rangeStep()
	for _, g := range []struct {
		what string
		fn   GroupFunc
	}{{"by name", GroupByMetricName}, {"by tag", GroupByTag("host")}} {
		got, gotErr := BuildFamilies(c.toSeries(), g.fn, r, step)
		want, wantErr := oracleBuildFamilies(c.toSeries(), g.fn, r, step)
		if err := compareBuilds("BuildFamilies "+g.what, got, want, gotErr, wantErr); err != nil {
			return err
		}
	}
	for _, key := range []string{"host", ""} {
		got, gotErr := FamiliesFromRelation(c.toRelation(), "ts", key, r, step)
		want, wantErr := oracleFamiliesFromRelation(c.toRelation(), "ts", key, r, step)
		if err := compareBuilds(fmt.Sprintf("FamiliesFromRelation key %q", key), got, want, gotErr, wantErr); err != nil {
			return err
		}
	}
	return nil
}

// records renders the case as store records in arrival order: the
// samples of one series, then the next, none sorted.
func (c buildCase) records() []tsdb.Record {
	var recs []tsdb.Record
	for _, cs := range c.series {
		tags := map[string]string{}
		if cs.host != "" {
			tags["host"] = cs.host
		}
		for _, smp := range cs.samples {
			recs = append(recs, tsdb.Record{Metric: cs.name, Tags: tags, TS: t0.Add(time.Duration(smp.at) * time.Second), Value: smp.v})
		}
	}
	return recs
}

// checkStoreRoute compares the in-place build over db, grouped by name and
// by host tag, with the oracle over the sorted copies db.Run returns.
// The builds run before Run, so a store left unsorted by its puts is
// first read by the in-place build.
func checkStoreRoute(c buildCase, db *tsdb.DB) error {
	r, step := c.rangeStep()
	groupings := []struct {
		what string
		fn   GroupFunc
	}{{"by name", GroupByMetricName}, {"by tag", GroupByTag("host")}}
	type build struct {
		fams []*Family
		n    int
		err  error
	}
	builds := make([]build, len(groupings))
	for i, g := range groupings {
		b := &builds[i]
		b.fams, b.n, b.err = BuildFamiliesFromStore(db, g.fn, r, step)
	}
	series, err := db.Run(tsdb.Query{Range: r})
	if err != nil {
		return err
	}
	for i, g := range groupings {
		b := builds[i]
		want, wantErr := oracleBuildFamilies(series, g.fn, r, step)
		what := fmt.Sprintf("BuildFamiliesFromStore %s at %d shards", g.what, db.NumShards())
		if err := compareBuilds(what, b.fams, want, b.err, wantErr); err != nil {
			return err
		}
		if b.n != len(series) {
			return fmt.Errorf("%s: read %d series, Run returned %d", what, b.n, len(series))
		}
	}
	return nil
}

// checkStoreShards loads the case into in-memory stores of 1 and 3 shards
// through PutBatch and checks the store route on each.
func checkStoreShards(c buildCase) error {
	for _, shards := range []int{1, 3} {
		db := tsdb.NewWithShards(shards)
		if err := db.PutBatch(c.records()); err != nil {
			return err
		}
		if err := checkStoreRoute(c, db); err != nil {
			return err
		}
	}
	return nil
}

// minutes returns one sample per minute from offset 0 with the given values.
func minutes(vals ...float64) []caseSample {
	out := make([]caseSample, len(vals))
	for i, v := range vals {
		out[i] = caseSample{at: 60 * i, v: v}
	}
	return out
}

// buildCases are the differential table, one per materialisation hazard.
var buildCases = []struct {
	name string
	c    buildCase
}{
	{"duplicates per bucket", buildCase{step: 60, span: 300, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{
			{0, 0.1}, {10, 0.2}, {20, 0.7}, {59, 1e-17},
			{60, 3}, {61, 3}, {62, 3.3}, {180, 1.0 / 3}, {190, 2.0 / 3}, {200, 1e16}, {210, -1e16},
		}},
	}}},
	{"non-finite values", buildCase{step: 60, span: 600, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{
			{0, math.NaN()}, {60, 1}, {120, math.Inf(1)}, {180, math.Inf(1)}, {190, math.Inf(-1)},
			{240, math.Copysign(0, -1)}, {300, math.Inf(-1)}, {360, 2}, {370, math.NaN()}, {420, 5},
		}},
		{name: "disk", host: "dn-2", samples: []caseSample{{0, math.NaN()}, {60, math.NaN()}, {120, math.NaN()}}},
		{name: "cpu", host: "dn-1", samples: []caseSample{{0, math.Copysign(0, -1)}, {300, math.Copysign(0, -1)}, {301, 0}}},
	}}},
	{"out-of-range samples", buildCase{step: 60, span: 300, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{{-120, 9}, {-1, 9}, {0, 1}, {299, 2}, {300, 9}, {900, 9}}},
		{name: "net", host: "dn-1", samples: []caseSample{{-60, 4}, {400, 5}}},
	}}},
	{"head and tail gaps", buildCase{step: 60, span: 600, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{{180, 1}, {240, 2}, {420, 7}}},
		{name: "disk", host: "dn-2", samples: []caseSample{{0, 1}, {60, 5}}},
		{name: "disk", host: "dn-3", samples: []caseSample{{540, 8}}},
	}}},
	{"all-missing columns", buildCase{step: 60, span: 300, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{{-60, 1}}},
		{name: "disk", host: "dn-2", samples: minutes(1, 2, 3)},
		{name: "disk", host: "dn-3", samples: []caseSample{{0, math.NaN()}, {60, math.Inf(1)}, {61, math.Inf(-1)}}},
		{name: "cpu", host: "dn-1", samples: []caseSample{{600, 1}}},
		{name: "net", host: "dn-1"},
	}}},
	{"multi-column families", buildCase{step: 60, span: 360, series: []caseSeries{
		{name: "disk", host: "dn-3", samples: minutes(1, 2, 3, 4, 5, 6)},
		{name: "disk", host: "dn-1", samples: minutes(6, 5, 4)},
		{name: "disk", host: "dn-2", samples: []caseSample{{60, 1}, {300, 2}}},
		{name: "cpu", host: "dn-1", samples: minutes(0.5, 0.25)},
		{name: "cpu", host: "dn-2", samples: []caseSample{{120, 9}}},
		{name: "net", host: "", samples: minutes(1, 1, 2, 3, 5, 8)},
	}}},
	{"step does not divide the range", buildCase{step: 90, span: 1000, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{{0, 1}, {89, 2}, {90, 3}, {900, 4}, {999, 5}, {1000, 6}}},
	}}},
	{"empty range", buildCase{step: 60, span: 0, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: minutes(1, 2)},
	}}},
	{"inverted range", buildCase{step: 60, span: -300, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{{-120, 1}}},
	}}},
	{"zero step", buildCase{step: 0, span: 300, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: minutes(1)},
	}}},
	{"group by tag with missing tag", buildCase{step: 60, span: 240, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: minutes(1, 2, 3, 4)},
		{name: "cpu", host: "dn-1", samples: []caseSample{{120, 7}}},
		{name: "disk", host: "", samples: minutes(4, 3)},
		{name: "net", host: "", samples: []caseSample{{180, 2}}},
		{name: "net", host: "dn-2", samples: minutes(0, 0, 0, 1)},
	}}},
	{"unsorted series", buildCase{step: 60, span: 300, series: []caseSeries{
		{name: "disk", host: "dn-1", unsorted: true, samples: []caseSample{{240, 4}, {-30, 8}, {0, 1}, {400, 9}, {60, 2}, {-90, 3}}},
	}}},
	{"duplicate timestamps", buildCase{step: 60, span: 240, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{{0, 1}, {0, 2}, {60, 1e16}, {60, 1}, {60, -1e16}, {120, 0.1}, {120, 0.2}, {120, 0.3}}},
		{name: "disk", host: "dn-2", unsorted: true, samples: []caseSample{{180, 1e16}, {0, 5}, {180, 1}, {0, 6}, {180, -1e16}}},
	}}},
	// Summed in arrival order, the first cell averages to 0 or 1/3 and the
	// second to 0.19999999999999998 or 0.20000000000000004, depending on
	// the order the duplicates came in.
	{"conflicting duplicates out of canonical order", buildCase{step: 60, span: 120, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{{0, -1e16}, {0, 1}, {0, 1e16}, {60, 0.3}, {60, 0.1}, {60, 0.2}}},
		{name: "disk", host: "dn-2", unsorted: true, samples: []caseSample{{60, 0.2}, {0, 1e16}, {60, 0.3}, {0, -1e16}, {60, 0.1}, {0, 1}}},
	}}},
	{"partial range", buildCase{step: 60, span: 600, series: []caseSeries{
		{name: "disk", host: "dn-1", samples: []caseSample{{-600, 1}, {-60, 2}, {0, 3}, {300, 4}, {599, 5}, {600, 6}, {1200, 7}}},
		{name: "cpu", host: "", samples: []caseSample{{-300, 1}, {240, 2}, {900, 3}}},
		{name: "net", host: "dn-2", samples: []caseSample{{600, 1}, {660, 2}}},
	}}},
	// A binary search of the range assumes sorted samples: on this series
	// it lost the 2 at +60s and let the 8 at -30s truncate into row 0.
	{"unsorted series straddling From", buildCase{step: 60, span: 180, series: []caseSeries{
		{name: "disk", host: "dn-1", unsorted: true, samples: []caseSample{{60, 2}, {-30, 8}, {0, 1}}},
	}}},
}

func TestBuildFamiliesMatchesOracle(t *testing.T) {
	for _, tc := range buildCases {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkAgainstOracle(tc.c); err != nil {
				t.Fatal(err)
			}
			if err := checkAgainstOracle(decodeCase(tc.c.encode())); err != nil {
				t.Fatalf("after encode/decode: %v", err)
			}
		})
	}
}

// TestBuildFamiliesFromStoreMatchesOracle: every differential case, put
// into in-memory stores of 1, 4 and 7 shards and into a durable store
// (written, then reopened), builds in place bitwise as the oracle builds
// that store's Run output, grouped by name and by host tag. The cases
// cover unsorted shards (an out-of-order put leaves the shard to be sorted
// under its write lock), duplicate timestamps, series with no sample in
// range, NaN and ±Inf samples, a {host=NULL} group and partial ranges.
func TestBuildFamiliesFromStoreMatchesOracle(t *testing.T) {
	for _, tc := range buildCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{1, 4, 7} {
				db := tsdb.NewWithShards(shards)
				if err := db.PutBatch(tc.c.records()); err != nil {
					t.Fatal(err)
				}
				if err := checkStoreRoute(tc.c, db); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			db, err := tsdb.OpenWithOptions(dir, tsdb.Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.PutBatch(tc.c.records()); err != nil {
				t.Fatal(err)
			}
			if err := checkStoreRoute(tc.c, db); err != nil {
				t.Fatalf("durable: %v", err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = tsdb.Open(dir); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := checkStoreRoute(tc.c, db); err != nil {
				t.Fatalf("durable, reopened: %v", err)
			}
		})
	}
}

// FuzzBuildFamilies drives arbitrary series, ranges and steps through
// BuildFamilies and FamiliesFromRelation, and through stores of 1 and 3
// shards into BuildFamiliesFromStore, and requires bitwise agreement with
// the oracle. The table cases seed it; testdata/fuzz holds them too.
func FuzzBuildFamilies(f *testing.F) {
	for _, tc := range buildCases {
		f.Add(tc.c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCase(data)
		if err := checkAgainstOracle(c); err != nil {
			t.Fatal(err)
		}
		if err := checkStoreShards(c); err != nil {
			t.Fatal(err)
		}
	})
}
