package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"explainit/internal/linalg"
	"explainit/internal/regress"
)

// oracleScore is the one-candidate route that panels replaced, kept as
// their bitwise oracle: residualize the candidate against the shared
// conditioning prep, then Scratch.CrossValidatedScore.
func oracleScore(l2 *L2Scorer, x, y, z *linalg.Matrix, prep *condPrep, s *regress.Scratch) (float64, error) {
	if err := l2.checkShapes(x, y, z); err != nil {
		return 0, err
	}
	if z != nil && z.Cols > 0 {
		if prep == nil {
			var err error
			if prep, err = l2.prepareCond(y, z); err != nil {
				return 0, err
			}
		}
		rx, err := prep.zDesign.ResidualizeInto(x, prep.lambda, s)
		if err != nil {
			return 0, err
		}
		x, y = rx, prep.ry
	}
	score, err := s.CrossValidatedScore(context.Background(), x, y, l2.grid(), l2.folds())
	if err != nil {
		return 0, err
	}
	return checkFinite(l2.Name(), score)
}

// oracleRank is RankPrepared as it ranked before panels, for the plain L2
// scorer over the full range: screen every candidate in order (Validate's
// full scan included), score the survivors one at a time, sort with
// sort.SliceStable.
func oracleRank(t testing.TB, e *Engine, req Request) *ScoreTable {
	t.Helper()
	l2, ok := e.Scorer.(*L2Scorer)
	if !ok {
		l2 = &L2Scorer{}
	}
	var zMat *linalg.Matrix
	excluded := map[string]bool{req.Target.Name: true}
	if len(req.Condition) > 0 {
		zFam, err := ConcatFamilies("Z", req.Condition)
		if err != nil {
			t.Fatal(err)
		}
		zMat = zFam.Matrix
		for _, f := range req.Condition {
			excluded[f.Name] = true
		}
	}
	var prep *condPrep
	if zMat != nil && zMat.Cols > 0 {
		prep, _ = l2.prepareCond(req.Target.Matrix, zMat)
	}
	table := &ScoreTable{}
	var s regress.Scratch
	for _, fam := range req.Candidates {
		if excluded[fam.Name] || fam.Validate() != nil || fam.NumRows() != req.Target.NumRows() {
			table.Skipped = append(table.Skipped, fam.Name)
			continue
		}
		res := Result{Family: fam.Name, Features: fam.NumFeatures()}
		score, err := oracleScore(l2, fam.Matrix, req.Target.Matrix, zMat, prep, &s)
		finish(&res, fam, req.Target, fam.NumFeatures(), score, err)
		table.Results = append(table.Results, res)
	}
	sort.SliceStable(table.Results, func(a, b int) bool {
		ra, rb := table.Results[a], table.Results[b]
		if (ra.Err == nil) != (rb.Err == nil) {
			return ra.Err == nil
		}
		if ra.Score != rb.Score {
			return ra.Score > rb.Score
		}
		return ra.Family < rb.Family
	})
	topK := e.TopK
	if topK <= 0 {
		topK = DefaultTopK
	}
	if !e.KeepAll && len(table.Results) > topK {
		table.Results = table.Results[:topK]
	}
	return table
}

// sameTable reports the first difference between two score tables: order,
// families, Score and PValue bits, errors, and Skipped.
func sameTable(got, want *ScoreTable) error {
	if !slices.Equal(got.Skipped, want.Skipped) {
		return fmt.Errorf("Skipped %v, want %v", got.Skipped, want.Skipped)
	}
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i, g := range got.Results {
		w := want.Results[i]
		if g.Family != w.Family || g.Features != w.Features ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.PValue) != math.Float64bits(w.PValue) ||
			fmt.Sprint(g.Err) != fmt.Sprint(w.Err) || g.Viz != w.Viz {
			return fmt.Errorf("row %d: %s score %.17g p %.17g err %v; want %s score %.17g p %.17g err %v",
				i, g.Family, g.Score, g.PValue, g.Err, w.Family, w.Score, w.PValue, w.Err)
		}
	}
	return nil
}

// checkPanelsMatchOracle ranks req through RankPrepared — with a prepared
// conditioning state and without — and requires the oracle's table.
func checkPanelsMatchOracle(t testing.TB, e *Engine, req Request) {
	t.Helper()
	want := oracleRank(t, e, req)
	cond, err := e.PrepareConditioning(req.Target, req.Condition, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*CondState{cond, nil} {
		got, err := e.RankPrepared(context.Background(), req, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTable(got, want); err != nil {
			t.Fatalf("prepared=%v: %v", c != nil, err)
		}
	}
}

// panelShape is one request shape: m candidates cycling through widths,
// a q-column target, a zw-column conditioning family (0: none), and the
// candidates (by index) that get a non-finite cell.
type panelShape struct {
	n, m, q, zw int
	widths      []int
	nonFinite   []int
}

// request builds the shape's request over a shared latent load, with
// per-candidate offsets and a 1e9 burst in every ninth candidate.
func (sh panelShape) request(seed int64) Request {
	rng := rand.New(rand.NewSource(seed))
	load := make([]float64, sh.n)
	for i := range load {
		load[i] = 3*math.Sin(float64(i)/7) + rng.NormFloat64()
	}
	gens := func(w int, f func(i int) float64) []func(int) float64 {
		out := make([]func(int) float64, w)
		for j := range out {
			out[j] = f
		}
		return out
	}
	var cands []*Family
	for c := 0; c < sh.m; c++ {
		off, burst := float64(c%4)*1e3, c%9 == 4
		cands = append(cands, synthFamily(fmt.Sprintf("f%04d", c), sh.n, gens(sh.widths[c%len(sh.widths)], func(i int) float64 {
			v := off + 0.6*load[i] + rng.NormFloat64()
			if burst && i > sh.n/2 && i < sh.n/2+sh.n/10 {
				v += 1e9
			}
			return v
		})...))
	}
	for k, c := range sh.nonFinite {
		cands[c].Matrix.Data[(7*k)%len(cands[c].Matrix.Data)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k%3]
	}
	target := synthFamily("target", sh.n, gens(sh.q, func(i int) float64 { return load[i] + 0.5*rng.NormFloat64() })...)
	req := Request{Target: target, Candidates: append([]*Family{target}, cands...)}
	if sh.zw > 0 {
		z := synthFamily("z", sh.n, gens(sh.zw, func(i int) float64 { return load[i] + rng.NormFloat64() })...)
		req.Condition = []*Family{z}
		req.Candidates = append(req.Candidates, z)
	}
	return req
}

// TestRankPanelsMatchOneAtATime pins panel scoring to the one-candidate
// oracle bit for bit — every Result's Score and PValue, the order and
// Skipped — at the benchmark shapes (rank_narrow: w = q = 1; session_wide:
// w = q = 20; serve_mixed: w = 5), each with and without a conditioning
// set, with mixed widths in one request, candidate counts that are not a
// multiple of the panel size, non-finite families inside a panel, and
// windows too short for the folds, at several worker counts.
func TestRankPanelsMatchOneAtATime(t *testing.T) {
	shapes := map[string]panelShape{
		"rank_narrow":  {n: 288, m: 301, q: 1, zw: 1, widths: []int{1}},
		"session_wide": {n: 288, m: 13, q: 20, zw: 20, widths: []int{20}},
		"serve_mixed":  {n: 288, m: 37, q: 1, zw: 1, widths: []int{5}},
		"mixed_widths": {n: 288, m: 90, q: 3, zw: 2, widths: []int{1, 2, 5, 20, 1, 1}},
		"non_finite":   {n: 288, m: 150, q: 1, zw: 1, widths: []int{1, 1, 3}, nonFinite: []int{30, 31, 77, 146}},
		"short":        {n: 8, m: 11, q: 1, zw: 1, widths: []int{1, 2}},
	}
	for name, sh := range shapes {
		for _, zw := range []int{sh.zw, 0} {
			sh := sh
			sh.zw = zw
			req := sh.request(int64(len(name)*10 + zw))
			for _, workers := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/z%d/w%d", name, zw, workers), func(t *testing.T) {
					checkPanelsMatchOracle(t, &Engine{Workers: workers, KeepAll: true}, req)
					checkPanelsMatchOracle(t, &Engine{Workers: workers, TopK: 7}, req)
				})
			}
		}
	}
}

// TestPanelJobsSizing pins the sizing rule: panels hold at most
// maxPanelCols columns, a width group of n splits into at least min(n, workers)
// panels of near-equal size, and every scorable candidate lands in exactly
// one panel of its own width, in candidate order.
func TestPanelJobsSizing(t *testing.T) {
	fams := func(widths ...int) []*Family {
		var out []*Family
		for i, w := range widths {
			out = append(out, &Family{Name: fmt.Sprint(i), Matrix: linalg.NewMatrix(4, w)})
		}
		return out
	}
	repeat := func(w, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = w
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		widths  []int
		workers int
		sizes   []int
	}{
		{"rank_narrow", repeat(1, 1998), 2, sizesOf(1998, 63)},
		{"session_wide", repeat(20, 48), 2, repeat(1, 48)},
		{"serve_mixed", repeat(5, 40), 2, []int{6, 6, 6, 6, 6, 5, 5}},
		{"few_narrow", repeat(1, 3), 2, []int{2, 1}},
		{"more_workers_than_candidates", repeat(1, 3), 8, []int{1, 1, 1}},
		{"one_worker", repeat(1, 100), 1, repeat(25, 4)},
		{"too_wide", repeat(100, 2), 1, []int{1, 1}},
		{"mixed", []int{1, 5, 1, 5, 1}, 2, []int{2, 1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cands := fams(tc.widths...)
			scorable := make([]int, len(cands))
			for i := range scorable {
				scorable[i] = i
			}
			jobs := panelJobs(cands, scorable, tc.workers)
			var sizes, seen []int
			for _, j := range jobs {
				sizes = append(sizes, len(j))
				w := cands[j[0]].NumFeatures()
				if len(j)*w > maxPanelCols && len(j) > 1 {
					t.Fatalf("panel of %d candidates of width %d exceeds %d columns", len(j), w, maxPanelCols)
				}
				for _, i := range j {
					if cands[i].NumFeatures() != w {
						t.Fatalf("panel mixes widths %d and %d", w, cands[i].NumFeatures())
					}
					seen = append(seen, i)
				}
			}
			if !slices.Equal(sizes, tc.sizes) {
				t.Fatalf("panel sizes %v, want %v", sizes, tc.sizes)
			}
			slices.Sort(seen)
			if !slices.Equal(seen, scorable) {
				t.Fatalf("candidates in panels %v, want each of %v once", seen, scorable)
			}
		})
	}
}

// sizesOf is the near-equal split of n into count panels, larger first.
func sizesOf(n, count int) []int {
	out := make([]int, count)
	for k := range out {
		out[k] = n / count
		if k < n%count {
			out[k]++
		}
	}
	return out
}

// FuzzPanelScores decodes a request from the fuzz bytes — rows, target
// width, conditioning width (0: none), worker count, and per candidate a
// width and a hostile cell — and pins RankPrepared's panels to the
// one-candidate oracle bit for bit, Skipped in candidate order included.
func FuzzPanelScores(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 0, 0, 0})                         // narrow, one column each, Z
	f.Add([]byte{1, 2, 0, 2, 1, 3, 1, 0, 2, 9, 3, 4})             // mixed widths, no Z
	f.Add([]byte{2, 1, 2, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1}) // NaN and ±Inf cells
	f.Add([]byte{0, 3, 3, 1, 3, 0, 3, 6, 3, 7, 2, 8})             // wide target, wide Z
	f.Add([]byte{3, 0, 1, 2, 1, 0, 0, 0, 1, 0})                   // too few rows for the folds
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		at := func(i int) int { return int(data[i%len(data)]) }
		n := []int{288, 60, 24, 8}[at(0)%4]
		q := []int{1, 2, 1, 5}[at(1)%4]
		zw := at(2) % 4
		workers := 1 + at(3)%3
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
		load := make([]float64, n)
		for i := range load {
			load[i] = rng.NormFloat64()
		}
		gen := func(name string, w int, kind int) *Family {
			cols := make([]func(int) float64, w)
			off := float64(kind%4) * 1e3
			for j := range cols {
				cols[j] = func(i int) float64 { return off + 0.5*load[i] + rng.NormFloat64() }
			}
			fam := synthFamily(name, n, cols...)
			cell := (kind * 31) % len(fam.Matrix.Data)
			switch kind % 8 {
			case 1:
				fam.Matrix.Data[cell] = math.NaN()
			case 2:
				fam.Matrix.Data[cell] = math.Inf(1 - 2*(kind/8%2))
			case 3: // a 0 → 1e9 burst over the middle fifth
				for i := 2 * n / 5; i < 3*n/5; i++ {
					fam.Matrix.Data[i*w] = 1e9 * (1 + rng.Float64())
				}
			case 4: // a constant column
				for i := 0; i < n; i++ {
					fam.Matrix.Data[i*w] = 2.5
				}
			case 5: // a counter with resets
				for i, acc := 0, 0.0; i < n; i++ {
					if acc += 1 + rng.Float64(); i%17 == 16 {
						acc = 0
					}
					fam.Matrix.Data[i*w] = acc
				}
			}
			return fam
		}
		var cands []*Family
		for c := 4; c+1 < len(data) && len(cands) < 40; c += 2 {
			cands = append(cands, gen(fmt.Sprintf("f%02d", len(cands)), []int{1, 1, 2, 3, 5, 1, 8, 1}[at(c)%8], at(c+1)))
		}
		if len(cands) == 0 {
			return
		}
		tcols := make([]func(int) float64, q)
		for j := range tcols {
			tcols[j] = func(i int) float64 { return load[i] + rng.NormFloat64() }
		}
		req := Request{Target: synthFamily("target", n, tcols...), Candidates: cands}
		if zw > 0 {
			req.Condition = []*Family{gen("z", zw, 0)}
		}
		checkPanelsMatchOracle(t, &Engine{Workers: workers, KeepAll: true}, req)
	})
}

// BenchmarkRankPreparedNarrow ranks the rank_narrow shape — 2000
// one-column candidates over 288 rows against a one-column conditioning
// family — through RankPrepared at the default worker count, the op the
// benchmark of record times, minus the facade. ns/op is one ranking.
func BenchmarkRankPreparedNarrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, m = 288, 2000
	load := noiseGen(rng, 1)
	z := synthFamily("z", n, load)
	target := synthFamily("y", n, func(i int) float64 { return z.Matrix.Data[i] + rng.NormFloat64() })
	cands := []*Family{target, z}
	for c := 0; c < m; c++ {
		cands = append(cands, synthFamily(fmt.Sprintf("f%04d", c), n, noiseGen(rng, 1)))
	}
	eng := &Engine{Scorer: &L2Scorer{}}
	req := Request{Target: target, Condition: []*Family{z}, Candidates: cands}
	cond, err := eng.PrepareConditioning(target, req.Condition, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := eng.RankPrepared(context.Background(), req, cond, nil); err != nil {
			b.Fatal(err)
		}
	}
}
