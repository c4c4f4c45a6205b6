package regress

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"explainit/internal/linalg"
)

// hostileCV is a fold-moment CV input decoded from fuzz bytes: n rows cut
// into k time-series folds, a design whose columns are each one of the
// shapes that have parted moment-space arithmetic from a refit on the rows
// before, and a target that loads on the design's well-behaved columns.
type hostileCV struct {
	x, y  *linalg.Matrix
	grid  []float64
	folds []FoldRange
	// twin is x with the flat baselines removed, exactly: the rows the
	// oracle fits. Its row-space mean of a flat 1e8 is off by a rounding
	// (a sum times a rounded 1/n), which it reads as spread and scales up
	// (see TestFoldMomentCVBurstColumn); the moment path, measuring from
	// each block's first row, sees exactly none.
	twin *linalg.Matrix
}

// Column shapes decodeHostileCV draws.
const (
	colGaussian      = iota
	colCounterResets // a monotone counter that drops to 0 every few rows
	colBurst         // flat 0, bursting to ~1e9 or ~1e12 inside one fold
	colFlatBaseline  // flat at exactly 1e8, bursting inside one fold
	colConstTraining // 2.5 on every row but one fold's, noise inside it
	colConstant      // -7 on every row
	colShapes
)

// decodeHostileCV reads the layout from the first bytes — rows, folds (a
// time-series partition, or three caller-made ranges with gaps and
// overlaps), target width, design width (including both sides of the
// primal/dual boundary on short windows), λ grid — and two bytes per
// column: its shape, and the fold it bursts in or is varying in. The
// values come from a generator seeded by all of the bytes.
func decodeHostileCV(data []byte) (hostileCV, bool) {
	if len(data) < 5 {
		return hostileCV{}, false
	}
	at := func(i int) int { return int(data[i%len(data)]) }
	n := []int{24, 60, 100, 288}[at(0)%4]
	k := 2 + at(1)%5
	q := 1 + at(2)%3
	folds, err := TimeSeriesFoldRanges(n, k)
	if err != nil {
		return hostileCV{}, false
	}
	if at(1)%7 == 6 {
		// Caller-made ranges instead of a partition: gaps, overlaps,
		// uneven sizes.
		folds = folds[:0]
		for f := 0; f < 3; f++ {
			from := at(7*f+11) % n
			folds = append(folds, FoldRange{From: from, To: from + 1 + at(7*f+12)%(n-from)})
		}
	}
	p := 1 + at(3)%6
	if n <= 60 && at(3)%8 >= 6 {
		// The smallest training set's width and one past it: the last
		// primal fold and the first dual one.
		p = n - (n+k-1)/k + at(3)%8 - 6
	}
	grid := DefaultLambdaGrid
	if at(4)%2 == 1 {
		grid = WideLambdaGrid
	}
	// A dual-regime fold standardizes its assembled training rows in row
	// space, as the oracle does, and so shares the oracle's misreading of
	// a large flat baseline; the twin cannot stand in there. Flat
	// baselines are drawn only where every fold is primal (a zero
	// baseline, exact in row space too, takes their place).
	dual := false
	for _, f := range folds {
		dual = dual || p > n-(f.To-f.From)
	}
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
	x, y := linalg.NewMatrix(n, p), linalg.NewMatrix(n, q)
	twin := linalg.NewMatrix(n, p)
	var plain []int
	for j := 0; j < p; j++ {
		shape := at(5+2*j) % colShapes
		if shape == colFlatBaseline && dual {
			shape = colBurst
		}
		f := folds[at(6+2*j)%len(folds)]
		inFold := func(i int) bool { return i >= f.From && i < f.To }
		period := 3 + at(6+2*j)%20
		burst := []float64{1e9, 1e12}[at(6+2*j)%2]
		var counter float64
		for i := 0; i < n; i++ {
			var v float64
			switch shape {
			case colGaussian:
				v = rng.NormFloat64()
			case colCounterResets:
				if counter += 1 + 10*rng.Float64(); i%period == period-1 {
					counter = 0
				}
				v = counter
			case colBurst, colFlatBaseline:
				if shape == colFlatBaseline {
					v = 1e8
				}
				if inFold(i) {
					v = burst * (1 + rng.Float64())
				}
			case colConstTraining:
				v = 2.5
				if inFold(i) {
					v = rng.NormFloat64()
				}
			case colConstant:
				v = -7
			}
			x.Set(i, j, v)
			if shape == colFlatBaseline {
				v -= 1e8 // exact: 1e8 is an integer, a burst a multiple of its ulp
			}
			twin.Set(i, j, v)
		}
		if shape == colGaussian || shape == colCounterResets {
			plain = append(plain, j)
		}
	}
	for i := 0; i < n; i++ {
		for c := 0; c < q; c++ {
			v := rng.NormFloat64()
			for m, j := range plain {
				if (m+c)%2 == 0 {
					v += x.At(i, j) / float64(1+m)
				}
			}
			y.Set(i, c, v)
		}
	}
	return hostileCV{x: x, y: y, grid: grid, folds: folds, twin: twin}, true
}

// FuzzFoldMomentCV pins Scratch.CrossValidateRidge (fold-moment CV) to
// CrossValidate(RidgeFitter, …), the refit-from-scratch oracle, at 1e-9 on
// every per-λ score and the final score, on hostile columns decoded from
// the fuzz bytes: counter resets, 0 → 1e9 and 1e12 bursts, flat 1e8
// baselines, columns constant in training, constant columns, gappy and
// overlapping folds, and widths on both sides of the primal/dual boundary. The best λ must agree wherever the oracle's
// winner leads by more than the tolerance.
func FuzzFoldMomentCV(f *testing.F) {
	// The burst case fold-moment CV was first found wrong on: one series on
	// a flat zero baseline bursting to ~1e9 inside the middle of five folds
	// of 288 rows, against a one-column target.
	f.Add([]byte{3, 3, 0, 0, 0, colBurst, 2})
	f.Add([]byte{3, 3, 2, 3, 1, colFlatBaseline, 2, colGaussian, 0, colBurst, 4, colCounterResets, 1})
	f.Add([]byte{2, 3, 0, 2, 1, colConstTraining, 4, colGaussian, 0, colConstant, 0})
	f.Add([]byte{0, 4, 1, 6, 0, colGaussian, 0, colCounterResets, 5})
	f.Add([]byte{1, 1, 0, 7, 1, colGaussian, 1})
	f.Add([]byte{2, 6, 1, 2, 0, colBurst, 1, colCounterResets, 3, 0, 0, 10, 40, 0, 0, 0, 0, 0, 30, 50, 0, 0, 0, 0, 0, 70, 29})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeHostileCV(data)
		if !ok {
			return
		}
		want, err := CrossValidate(RidgeFitter, in.twin, in.y, in.grid, indexFolds(in.x.Rows, in.folds))
		if err != nil {
			t.Fatal(err)
		}
		var s Scratch
		got, err := s.CrossValidateRidge(context.Background(), in.x, in.y, in.grid, in.folds)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.PerLambda {
			if math.Abs(got.PerLambda[i]-want.PerLambda[i]) > equivTol {
				t.Fatalf("λ=%g: fold moments %.12g, oracle %.12g", in.grid[i], got.PerLambda[i], want.PerLambda[i])
			}
		}
		if math.Abs(got.Score-want.Score) > equivTol {
			t.Fatalf("score: fold moments %.12g, oracle %.12g", got.Score, want.Score)
		}
		if got.BestLambda != want.BestLambda {
			for i, v := range want.PerLambda {
				if in.grid[i] != want.BestLambda && want.Score-v <= 2*equivTol {
					return // a tie within the tolerance: either winner is right
				}
			}
			t.Fatalf("best λ: fold moments %g, oracle %g (per-λ %v)", got.BestLambda, want.BestLambda, want.PerLambda)
		}
	})
}
