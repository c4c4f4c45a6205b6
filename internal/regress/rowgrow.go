package regress

import (
	"math"

	"explainit/internal/linalg"
)

// effStd mirrors the standardization divisor policy of
// linalg.StandardizeColumns: columns with (near-)zero spread are centered
// but not divided, i.e. scaled by 1.
func effStd(s float64) float64 {
	if s > 1e-12 {
		return s
	}
	return 1
}

// ExtendDesignRows returns the design of the vertically grown matrix grown,
// whose first prev.Rows() rows must be — bitwise — the rows prev was built
// on (prevRaw, the raw matrix prev came from, witnesses this). It is the
// row/sample-growth counterpart of ExtendDesign's column growth: instead of
// re-accumulating the full O(n·p²) Gram, it recovers the centered cross-
// moment block already summed inside prev's standardized Gram (an O(p²)
// rescale — Gs_ij·s_i·s_j is exactly Σ(x_i−m_i)(x_j−m_j)), crosses only the
// t new tail rows (O(t·p²)), shifts the combined moments to the grown
// window's mean (O(p²); centered accumulation sidesteps the catastrophic
// cancellation of raw ΣxᵢxⱼΣ bookkeeping), and restandardizes. Cholesky
// factors are refactored lazily per λ (O(p³) ≪ O(n·p²) for long windows).
//
// The returned bool reports whether the incremental path was taken. Any
// precondition failure — the window slid or retained data (prefix rows not
// bitwise equal), columns changed, the row count shrank, or prev is in the
// dual regime where the n×n outer Gram admits no cheap row extension —
// falls back to NewRidgeDesign(grown) from scratch with extended=false.
//
// Results match NewRidgeDesign(grown) to ~1e-9 relative (not bitwise: the
// moment recovery reorders the floating-point accumulation), which is the
// contract extended designs already carry (see ExtendDesign).
func ExtendDesignRows(prev *RidgeDesign, prevRaw, grown *linalg.Matrix) (*RidgeDesign, bool, error) {
	if grown == nil || grown.Rows == 0 || grown.Cols == 0 {
		return nil, false, ErrNoData
	}
	if prev == nil || prevRaw == nil || !prev.primal ||
		prevRaw.Rows != prev.Rows() || prevRaw.Cols != prev.Cols() ||
		grown.Cols != prev.Cols() || grown.Rows <= prev.Rows() {
		d, err := NewRidgeDesign(grown)
		return d, false, err
	}
	n1, n2, p := prev.Rows(), grown.Rows, grown.Cols
	// The prefix must be exactly the data prev summarized; a slid or
	// retained window invalidates the cached moments.
	if !equalPrefixRows(prevRaw, grown, n1) {
		d, err := NewRidgeDesign(grown)
		return d, false, err
	}

	m1, e1 := prev.xMeans, make([]float64, p)
	for j, s := range prev.xStds {
		e1[j] = effStd(s)
	}

	// Centered tail: t×p rows of grown minus the old means, crossed with the
	// existing parallel Gram kernel — the only O(t·p²) step.
	t := n2 - n1
	tail := linalg.NewMatrix(t, p)
	tc := make([]float64, p) // Σ_tail (x_j − m1_j)
	for i := 0; i < t; i++ {
		src := grown.Row(n1 + i)
		dst := tail.Row(i)
		for j, v := range src {
			c := v - m1[j]
			dst[j] = c
			tc[j] += c
		}
	}
	ct := tail.Gram()

	// Combined centered moments at the old mean, then shifted to the grown
	// window's mean m2 = m1 + d: C2 = C1 + Ct − n2·d·dᵀ.
	d2 := make([]float64, p)
	m2 := make([]float64, p)
	for j := range d2 {
		d2[j] = tc[j] / float64(n2)
		m2[j] = m1[j] + d2[j]
	}
	c2 := linalg.NewMatrix(p, p)
	for i := 0; i < p; i++ {
		grow := prev.gram.Row(i)
		crow := ct.Row(i)
		orow := c2.Row(i)
		for j := 0; j < p; j++ {
			orow[j] = grow[j]*e1[i]*e1[j] + crow[j] - float64(n2)*d2[i]*d2[j]
		}
	}

	// Restandardize: variances sit on C2's diagonal.
	s2 := make([]float64, p)
	e2 := make([]float64, p)
	for j := 0; j < p; j++ {
		v := c2.At(j, j) / float64(n2)
		if v < 0 {
			v = 0
		}
		s2[j] = math.Sqrt(v)
		e2[j] = effStd(s2[j])
	}
	gram := c2
	for i := 0; i < p; i++ {
		row := gram.Row(i)
		for j := 0; j < p; j++ {
			row[j] /= e2[i] * e2[j]
		}
	}

	xs := grown.Clone().ApplyStandardization(m2, s2)
	return &RidgeDesign{
		xs:     xs,
		xMeans: m2,
		xStds:  s2,
		primal: p <= n2,
		gram:   gram,
	}, true, nil
}

// equalPrefixRows reports whether the first n rows of a and b are bitwise
// identical.
func equalPrefixRows(a, b *linalg.Matrix, n int) bool {
	if a.Cols != b.Cols || a.Rows < n || b.Rows < n {
		return false
	}
	for i := 0; i < n; i++ {
		ar, br := a.Row(i), b.Row(i)
		for j, v := range ar {
			if v != br[j] {
				return false
			}
		}
	}
	return true
}
