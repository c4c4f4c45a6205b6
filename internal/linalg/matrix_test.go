package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("new matrix must be zeroed")
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(2, 1) != 6 || m.At(1, 0) != 3 {
		t.Fatalf("wrong elements: %v", m.Data)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected shape error for ragged rows")
	}
}

func TestFromColumns(t *testing.T) {
	m, err := FromColumns([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(0, 1) != 4 || m.At(2, 0) != 3 {
		t.Fatalf("wrong elements: %v", m.Data)
	}
}

func TestFromColumnsRagged(t *testing.T) {
	if _, err := FromColumns([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulShapes(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 2)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("got %v", c)
	}
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := GaussianMatrix(rng, 7, 4)
	b := GaussianMatrix(rng, 7, 3)
	fast, err := a.MulT(b)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := a.T().Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Equal(slow, 1e-10) {
		t.Fatal("MulT must equal T().Mul()")
	}
}

func TestGramMatchesMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := GaussianMatrix(rng, 9, 5)
	g := a.Gram()
	ref, err := a.MulT(a)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(ref, 1e-10) {
		t.Fatal("Gram must equal A^T A")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		a := GaussianMatrix(rng, rows, cols)
		return a.T().T().Equal(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(a, 1e-12) {
		t.Fatal("(a+b)-b must equal a")
	}
	doubled := a.Clone().Scale(2)
	sum2, _ := a.Add(a)
	if !doubled.Equal(sum2, 1e-12) {
		t.Fatal("2a must equal a+a")
	}
}

func TestAddDiag(t *testing.T) {
	a := NewMatrix(3, 3)
	a.AddDiag(2.5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 2.5
			}
			if a.At(i, j) != want {
				t.Fatalf("at (%d,%d): %g", i, j, a.At(i, j))
			}
		}
	}
}

func TestSliceAndSelect(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s, err := m.SliceRows(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 2 || s.At(0, 0) != 4 || s.At(1, 2) != 9 {
		t.Fatalf("bad slice: %v", s)
	}
	sel, err := m.SelectRows([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.At(0, 0) != 7 || sel.At(1, 0) != 1 {
		t.Fatalf("bad select rows: %v", sel)
	}
	if _, err := m.SelectRows([]int{5}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := m.SliceRows(2, 1); err == nil {
		t.Fatal("expected range error")
	}
}

func TestHStack(t *testing.T) {
	a, _ := FromRows([][]float64{{1}, {2}})
	b, _ := FromRows([][]float64{{3, 4}, {5, 6}})
	h, err := HStack(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cols != 3 || h.At(0, 1) != 3 || h.At(1, 2) != 6 {
		t.Fatalf("bad hstack: %v", h)
	}
	c := NewMatrix(3, 1)
	if _, err := HStack(a, c); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestColMeansStds(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 10}, {3, 10}})
	means := m.ColMeans()
	if means[0] != 2 || means[1] != 10 {
		t.Fatalf("means %v", means)
	}
	stds := m.ColStds(means)
	if math.Abs(stds[0]-1) > 1e-12 || stds[1] != 0 {
		t.Fatalf("stds %v", stds)
	}
}

func TestStandardizeColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := GaussianMatrix(rng, 200, 3)
	m.Scale(5)
	means, stds := m.StandardizeColumns()
	if len(means) != 3 || len(stds) != 3 {
		t.Fatal("wrong transform sizes")
	}
	newMeans := m.ColMeans()
	newStds := m.ColStds(newMeans)
	for j := 0; j < 3; j++ {
		if math.Abs(newMeans[j]) > 1e-9 {
			t.Fatalf("col %d mean %g after standardize", j, newMeans[j])
		}
		if math.Abs(newStds[j]-1) > 1e-9 {
			t.Fatalf("col %d std %g after standardize", j, newStds[j])
		}
	}
}

func TestApplyStandardizationMatchesTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := GaussianMatrix(rng, 50, 2)
	clone := train.Clone()
	means, stds := train.StandardizeColumns()
	clone.ApplyStandardization(means, stds)
	if !clone.Equal(train, 1e-12) {
		t.Fatal("ApplyStandardization must reproduce StandardizeColumns")
	}
}

func TestCenterColumns(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 6}})
	m.CenterColumns(m.ColMeans())
	means := m.ColMeans()
	if math.Abs(means[0]) > 1e-12 || math.Abs(means[1]) > 1e-12 {
		t.Fatalf("means %v after centering", means)
	}
}

func TestFrobeniusAndMaxAbs(t *testing.T) {
	m, _ := FromRows([][]float64{{3, -4}})
	if math.Abs(m.FrobeniusNorm()-5) > 1e-12 {
		t.Fatalf("frobenius %g", m.FrobeniusNorm())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("maxabs %g", m.MaxAbs())
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small, _ := FromRows([][]float64{{1, 2}})
	if got := small.String(); got == "" {
		t.Fatal("empty string render")
	}
	big := NewMatrix(20, 20)
	if got := big.String(); got != "Matrix(20x20)" {
		t.Fatalf("large matrix should elide, got %q", got)
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := GaussianMatrix(rng, n, k)
		b := GaussianMatrix(rng, k, m)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		btat, err := b.T().Mul(a.T())
		if err != nil {
			return false
		}
		return ab.T().Equal(btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication is associative.
func TestMulAssociativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := GaussianMatrix(rng, 1+rng.Intn(5), 1+rng.Intn(5))
		b := GaussianMatrix(rng, a.Cols, 1+rng.Intn(5))
		c := GaussianMatrix(rng, b.Cols, 1+rng.Intn(5))
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		return abc1.Equal(abc2, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
