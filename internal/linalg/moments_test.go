package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMoments is the reference two-pass loop the block kernel and Merge
// must agree with: means of the raw rows, then the scatter about them.
func naiveMoments(x, y *Matrix, rows []int) (meanX, meanY []float64, xx, xy *Matrix, yy []float64) {
	p, q := x.Cols, y.Cols
	meanX, meanY, yy = make([]float64, p), make([]float64, q), make([]float64, q)
	xx, xy = NewMatrix(p, p), NewMatrix(p, q)
	for _, i := range rows {
		for j := 0; j < p; j++ {
			meanX[j] += x.At(i, j) / float64(len(rows))
		}
		for j := 0; j < q; j++ {
			meanY[j] += y.At(i, j) / float64(len(rows))
		}
	}
	for _, i := range rows {
		for j := 0; j < p; j++ {
			dj := x.At(i, j) - meanX[j]
			for k := 0; k < p; k++ {
				xx.Data[j*p+k] += dj * (x.At(i, k) - meanX[k])
			}
			for k := 0; k < q; k++ {
				xy.Data[j*q+k] += dj * (y.At(i, k) - meanY[k])
			}
		}
		for k := 0; k < q; k++ {
			d := y.At(i, k) - meanY[k]
			yy[k] += d * d
		}
	}
	return
}

func checkBlock(t *testing.T, name string, b *MomentBlock, x, y *Matrix, rows []int) {
	t.Helper()
	meanX, meanY, xx, xy, yy := naiveMoments(x, y, rows)
	if b.N != len(rows) {
		t.Fatalf("%s: N = %d, want %d", name, b.N, len(rows))
	}
	const tol = 1e-10
	for j := range meanX {
		if d := math.Abs(b.RefX[j] + b.MeanX[j] - meanX[j]); d > tol {
			t.Fatalf("%s: mean x[%d] off by %g", name, j, d)
		}
	}
	for j := range meanY {
		if d := math.Abs(b.RefY[j] + b.MeanY[j] - meanY[j]); d > tol {
			t.Fatalf("%s: mean y[%d] off by %g", name, j, d)
		}
		if d := math.Abs(b.YY[j] - yy[j]); d > tol {
			t.Fatalf("%s: yy[%d] off by %g", name, j, d)
		}
	}
	if d := maxAbsDiff(&b.XX, xx); d > tol {
		t.Fatalf("%s: xx differs from naive by %g", name, d)
	}
	if d := maxAbsDiff(&b.XY, xy); d > tol {
		t.Fatalf("%s: xy differs from naive by %g", name, d)
	}
}

func rowRange(from, to int) []int {
	rows := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		rows = append(rows, i)
	}
	return rows
}

// momentBlock fills b with the summary of rows [from, to) of the pair (x, y).
func momentBlock(x, y *Matrix, from, to int, b *MomentBlock) {
	var t TargetBlock
	t.Reset(y, from, to)
	t.Block(x, b, new(Matrix))
}

// TestMomentBlocksMatchNaive: every block of a row partition, and the
// merge of any subset of blocks, equals the naive loop over those rows —
// at the single-column shape (dot-product path) and at blocked-kernel shapes
// whose row counts exercise the four-row tiles and their remainders.
func TestMomentBlocksMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shape := range []struct{ n, p, q int }{{57, 1, 1}, {58, 1, 3}, {61, 5, 1}, {130, 17, 6}, {288, 20, 20}} {
		x := GaussianMatrix(rng, shape.n, shape.p)
		y := GaussianMatrix(rng, shape.n, shape.q)
		for i := range x.Data {
			x.Data[i] += 40 // off-centre, so the reference shift has work to do
		}
		cuts := []int{0, shape.n / 5, shape.n / 2, shape.n/2 + 3, shape.n}
		blocks := make([]MomentBlock, len(cuts)-1)
		for i := range blocks {
			momentBlock(x, y, cuts[i], cuts[i+1], &blocks[i])
			checkBlock(t, "block", &blocks[i], x, y, rowRange(cuts[i], cuts[i+1]))
		}
		// Leave one block out, as a fold's training set does.
		for out := range blocks {
			var parts []*MomentBlock
			var rows []int
			for i := range blocks {
				if i != out {
					parts = append(parts, &blocks[i])
					rows = append(rows, rowRange(cuts[i], cuts[i+1])...)
				}
			}
			var merged MomentBlock
			merged.Merge(parts)
			checkBlock(t, "merge", &merged, x, y, rows)
		}
	}
}

// TestMomentBlockReuse: a block and an accumulator recycled across shapes
// carry nothing over from their previous use.
func TestMomentBlockReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var tb TargetBlock
	var b MomentBlock
	var tile Matrix
	for _, shape := range []struct{ n, p, q int }{{40, 6, 2}, {20, 1, 1}, {64, 9, 4}} {
		x := GaussianMatrix(rng, shape.n, shape.p)
		y := GaussianMatrix(rng, shape.n, shape.q)
		tb.Reset(y, 3, shape.n-2)
		tb.Block(x, &b, &tile)
		checkBlock(t, "reused", &b, x, y, rowRange(3, shape.n-2))
	}
}

// TestMomentBlockSingleSeriesPath pins Block's 1x1 dot-product branch to the
// blocked kernels it bypasses: the same series scored once as a 1x1 pair and
// once with a second target column (which takes the generic path) must agree
// on everything the two share, and with the naive loop — over row counts
// that walk the dot product's unrolled body and every remainder.
func TestMomentBlockSingleSeriesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= 70; n++ {
		x := GaussianMatrix(rng, n, 1)
		y := GaussianMatrix(rng, n, 1)
		y2 := NewMatrix(n, 2)
		for i := 0; i < n; i++ {
			x.Data[i] += 40
			y2.Data[2*i], y2.Data[2*i+1] = y.Data[i], -y.Data[i]
		}
		var fast, generic MomentBlock
		momentBlock(x, y, 0, n, &fast)
		checkBlock(t, "1x1", &fast, x, y, rowRange(0, n))
		momentBlock(x, y2, 0, n, &generic)
		const tol = 1e-10
		for name, d := range map[string]float64{
			"mean x": fast.MeanX[0] - generic.MeanX[0],
			"mean y": fast.MeanY[0] - generic.MeanY[0],
			"xx":     fast.XX.Data[0] - generic.XX.Data[0],
			"xy":     fast.XY.Data[0] - generic.XY.Data[0],
			"yy":     fast.YY[0] - generic.YY[0],
		} {
			if math.Abs(d) > tol {
				t.Fatalf("n=%d: %s differs between the 1x1 and the blocked path by %g", n, name, d)
			}
		}
	}
}

// TestMomentBlockLocalReference: a column flat in some blocks and enormous
// in another keeps exactly zero spread where it is flat — in each flat
// block and in their merge — because every block measures from its own
// first row, not from a point the burst has dragged away.
func TestMomentBlockLocalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n = 90
	x, y := GaussianMatrix(rng, n, 2), GaussianMatrix(rng, n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 1, 0.1)
		if i >= 30 && i < 60 {
			x.Set(i, 1, 1e12*(1+rng.Float64()))
		}
	}
	blocks := make([]MomentBlock, 3)
	for i := range blocks {
		momentBlock(x, y, 30*i, 30*(i+1), &blocks[i])
	}
	var flat MomentBlock
	flat.Merge([]*MomentBlock{&blocks[0], &blocks[2]})
	if v := flat.XX.At(1, 1); v != 0 {
		t.Fatalf("flat column has scatter %g over the flat blocks, want exactly 0", v)
	}
	if got := flat.RefX[1] + flat.MeanX[1]; got != 0.1 {
		t.Fatalf("flat column mean %g, want exactly 0.1", got)
	}
	if d := blocks[1].MeanXFrom(&flat, 1); d < 1e12 || d > 2e12 {
		t.Fatalf("burst block sits %g above the flat rows, want within [1e12, 2e12]", d)
	}
}

// TestTargetBlockLaneMatchesBlock: Lane is Block at p = 1 without the
// MomentBlock — reference, mean, scatter and cross-scatter bit for bit, for
// one- and multi-column targets (the dot and the blocked kernels), over
// segment lengths that walk every four-row remainder.
func TestTargetBlockLaneMatchesBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, q := range []int{1, 3} {
		for n := 1; n <= 40; n++ {
			const from = 5
			x, y := GaussianMatrix(rng, from+n+3, 1), GaussianMatrix(rng, from+n+3, q)
			for i := range x.Data {
				x.Data[i] = 40 + x.Data[i]*float64(i%3) // off-centre, with zero runs
			}
			var tb TargetBlock
			var b MomentBlock
			tb.Reset(y, from, from+n)
			tb.Block(x, &b, new(Matrix))
			xy := make([]float64, q)
			ref, mean, xx := tb.Lane(x.Data, make([]float64, n), xy)
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(ref, b.RefX[0]) || !same(mean, b.MeanX[0]) || !same(xx, b.XX.Data[0]) {
				t.Fatalf("q=%d n=%d: lane (%v, %v, %v), block (%v, %v, %v)", q, n, ref, mean, xx, b.RefX[0], b.MeanX[0], b.XX.Data[0])
			}
			for c := range xy {
				if !same(xy[c], b.XY.Data[c]) {
					t.Fatalf("q=%d n=%d: lane xy[%d] = %v, block %v", q, n, c, xy[c], b.XY.Data[c])
				}
			}
		}
	}
}
