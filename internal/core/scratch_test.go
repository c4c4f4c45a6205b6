package core

import (
	"context"
	"math/rand"
	"testing"

	"explainit/internal/regress"
)

// TestScoreAllocBudget pins the per-candidate garbage of the hot path: one
// conditioned single-series candidate over a 288-point window, scored
// through L2Scorer.score on a warm worker scratch, may allocate at most a
// handful of small objects. The copy-per-fold CV this replaced allocated
// ~270 times (≈100 KB) per candidate; a regression back towards that fails
// here instead of waiting for a benchmark run.
func TestScoreAllocBudget(t *testing.T) {
	const n = 288
	rng := rand.New(rand.NewSource(12))
	load := noiseGen(rng, 1)
	target := synthFamily("y", n, func(i int) float64 { return load(i) + rng.NormFloat64() })
	z := synthFamily("z", n, load)
	x := synthFamily("x", n, noiseGen(rng, 1))
	scorer := &L2Scorer{}
	prep, err := scorer.prepareCond(target.Matrix, z.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	scratch := new(regress.Scratch)
	score := func() {
		if _, err := scorer.score(context.Background(), x.Matrix, target.Matrix, z.Matrix, prep, nil, scratch); err != nil {
			t.Fatal(err)
		}
	}
	score() // warm the scratch and the design's factor cache
	if allocs := testing.AllocsPerRun(200, score); allocs > 8 {
		t.Fatalf("scoring one warm 288x1 candidate allocates %.0f objects, budget is 8", allocs)
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
