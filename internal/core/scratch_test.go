package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"explainit/internal/linalg"
	"explainit/internal/regress"
)

// TestScoreAllocBudget pins the per-candidate garbage of the hot path: 64
// conditioned single-series candidates over a 288-point window, cut into
// panels and scored the way RankPrepared's workers score them, on a warm
// worker scratch, may allocate no more than they measure today — nothing
// at all. Scoring one candidate at a
// time allocated up to 8 objects per candidate, and the copy-per-fold CV
// before that ~270 (≈100 KB); a regression back towards either fails here
// instead of waiting for a benchmark run.
func TestScoreAllocBudget(t *testing.T) {
	const n, m = 288, 64
	rng := rand.New(rand.NewSource(12))
	load := noiseGen(rng, 1)
	target := synthFamily("y", n, func(i int) float64 { return load(i) + rng.NormFloat64() })
	z := synthFamily("z", n, load)
	cands := make([]*Family, m)
	job := make([]int, m)
	for i := range cands {
		cands[i] = synthFamily(fmt.Sprintf("x%d", i), n, noiseGen(rng, 1))
		job[i] = i
	}
	scorer := &L2Scorer{}
	prep, err := scorer.prepareCond(target.Matrix, z.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	run := &panelRun{l2: scorer, y: target, z: z.Matrix, target: scorer.panelTarget(target.Matrix, prep)}
	scratch := new(regress.Scratch)
	done, skip := make([]Result, m), make([]bool, m)
	var xs []*linalg.Matrix
	var out []regress.PanelScore
	jobs := panelJobs(cands, job, 1)
	score := func() {
		for _, j := range jobs {
			xs, out = run.score(context.Background(), cands, j, scratch, done, skip, xs, out)
			for k := range j {
				if skip[k] || done[k].Err != nil {
					t.Fatalf("candidate %d: skipped %v, err %v", j[k], skip[k], done[k].Err)
				}
			}
		}
	}
	score() // warm the scratch, the buffers and the design's factor cache
	if allocs := testing.AllocsPerRun(100, score); allocs > 0 {
		t.Fatalf("scoring %d warm 288x1 candidates in %d panels allocates %.0f objects, budget is 0", m, len(jobs), allocs)
	}
}

// TestFamilyVizMemoized: the Score Table's viz column is the sparkline of
// the family's lead column, byte for byte, however often it is asked for.
func TestFamilyVizMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fam := synthFamily("f", 100, noiseGen(rng, 1), noiseGen(rng, 1))
	want := Sparkline(fam.Matrix.Col(0), 32)
	if want == "" {
		t.Fatal("empty reference sparkline")
	}
	for i := 0; i < 3; i++ {
		if got := fam.viz(); got != want {
			t.Fatalf("viz() = %q, want %q", got, want)
		}
	}
	target := synthFamily("y", 100, noiseGen(rng, 1))
	table, err := (&Engine{KeepAll: true}).Rank(Request{Target: target, Candidates: []*Family{fam}})
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Results[0].Viz; got != want {
		t.Fatalf("Result.Viz = %q, want %q", got, want)
	}
}

// oracleSparkline is Sparkline as it was before it read columns in place:
// a copied column, a bucket slice and a rune slice per call.
func oracleSparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	buckets := make([]float64, 0, width)
	if len(values) <= width {
		buckets = values
	} else {
		per := float64(len(values)) / float64(width)
		for b := 0; b < width; b++ {
			lo := int(float64(b) * per)
			hi := int(float64(b+1) * per)
			if hi > len(values) {
				hi = len(values)
			}
			if lo >= hi {
				lo = hi - 1
			}
			var s float64
			for _, v := range values[lo:hi] {
				s += v
			}
			buckets = append(buckets, s/float64(hi-lo))
		}
	}
	min, max := buckets[0], buckets[0]
	for _, v := range buckets {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(buckets))
	for i, v := range buckets {
		if max == min {
			out[i] = levels[0]
			continue
		}
		idx := int((v - min) / (max - min) * float64(len(levels)-1))
		out[i] = levels[idx]
	}
	return string(out)
}

// TestSparklineMatchesOracle: the viz column, read in place from the lead
// column of a family of any width, is byte for byte the old copy-based
// sparkline of that column, over lengths below, at and above the viz
// width, flat and varying columns; and rendering allocates only the
// result.
func TestSparklineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, rows := range []int{1, 2, 7, 31, 32, 33, 64, 100, 288, 1000} {
		for _, width := range []int{1, 2, 5} {
			for _, flat := range []bool{false, true} {
				gens := make([]func(int) float64, width)
				for j := range gens {
					gens[j] = noiseGen(rng, float64(j+1))
					if flat {
						gens[j] = func(int) float64 { return 3.5 }
					}
				}
				fam := synthFamily("f", rows, gens...)
				want := oracleSparkline(fam.Matrix.Col(0), vizWidth)
				if got := fam.viz(); got != want {
					t.Fatalf("%d rows, width %d, flat %v: viz %q, oracle %q", rows, width, flat, got, want)
				}
				for _, w := range []int{0, 1, 3, 16, 32, 40} {
					col := fam.Matrix.Col(0)
					if got, want := Sparkline(col, w), oracleSparkline(col, w); got != want {
						t.Fatalf("%d rows, sparkline width %d: %q, oracle %q", rows, w, got, want)
					}
				}
			}
		}
	}
	fam := synthFamily("f", 288, noiseGen(rng, 1), noiseGen(rng, 1))
	m := fam.Matrix
	if allocs := testing.AllocsPerRun(100, func() { _ = sparkline(m.Data, m.Rows, m.Cols, vizWidth) }); allocs != 1 {
		t.Fatalf("rendering a viz column allocates %.0f objects, want 1 (the result)", allocs)
	}
}
