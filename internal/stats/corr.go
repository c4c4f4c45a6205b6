// Package stats provides the statistical machinery behind ExplainIt!'s
// hypothesis scoring: Pearson correlation, r-squared and its adjusted form,
// the Beta null distribution of r-squared (Appendix A of the paper),
// Chebyshev p-value bounds, multiple-testing corrections, and the
// seasonal/trend decomposition used to build pseudocauses (§3.4).
package stats

import (
	"math"

	"explainit/internal/linalg"
)

// Mean returns the arithmetic mean of vs (0 for an empty slice).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Variance returns the population variance of vs.
func Variance(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := Mean(vs)
	var ss float64
	for _, v := range vs {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(vs))
}

// Std returns the population standard deviation of vs.
func Std(vs []float64) float64 { return math.Sqrt(Variance(vs)) }

// Pearson returns the Pearson product-moment correlation between x and y.
// Slices must have equal length; a constant input yields 0.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx <= 0 || syy <= 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CorrelationMatrix returns the |X.Cols| x |Y.Cols| matrix of pairwise
// Pearson correlations between the columns of X and the columns of Y.
func CorrelationMatrix(x, y *linalg.Matrix) *linalg.Matrix {
	if x.Rows != y.Rows {
		// Mismatched row counts: return an empty matrix rather than panic;
		// callers validate shapes upstream.
		return linalg.NewMatrix(0, 0)
	}
	// Center copies of both matrices and take column norms in one fused
	// write pass each (centeredWithNorms); then correlation is the scaled
	// inner product of columns. Accumulation order matches the unfused
	// clone/center/norm sequence term for term, so results are bitwise
	// identical — this only removes the redundant clone-copy and the extra
	// norm pass over each matrix.
	xs, xNorms := centeredWithNorms(x)
	ys, yNorms := centeredWithNorms(y)
	prod, err := xs.MulT(ys) // (p_x x p_y)
	if err != nil {
		return linalg.NewMatrix(0, 0)
	}
	for i := 0; i < prod.Rows; i++ {
		for j := 0; j < prod.Cols; j++ {
			d := xNorms[i] * yNorms[j]
			if d <= 0 {
				prod.Set(i, j, 0)
			} else {
				prod.Set(i, j, prod.At(i, j)/d)
			}
		}
	}
	return prod
}

// centeredWithNorms returns a column-centered copy of m and the Euclidean
// norm of each centered column, computed in the same row-major accumulation
// order as Clone + ColMeans + CenterColumns + a norm pass would — one
// allocation and two passes instead of four.
func centeredWithNorms(m *linalg.Matrix) (*linalg.Matrix, []float64) {
	out := linalg.NewMatrix(m.Rows, m.Cols)
	means := make([]float64, m.Cols)
	norms := make([]float64, m.Cols)
	if m.Rows == 0 {
		return out, norms
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			means[j] += v
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range means {
		means[j] *= inv
	}
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, v := range src {
			c := v - means[j]
			dst[j] = c
			norms[j] += c * c
		}
	}
	for j := range norms {
		norms[j] = math.Sqrt(norms[j])
	}
	return out, norms
}

// AbsMeanMax returns the mean and the max of absolute values over all
// entries of m. These are the CorrMean and CorrMax summaries of §3.5.
func AbsMeanMax(m *linalg.Matrix) (mean, max float64) {
	if len(m.Data) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range m.Data {
		a := math.Abs(v)
		sum += a
		if a > max {
			max = a
		}
	}
	return sum / float64(len(m.Data)), max
}

// RSquared returns 1 - RSS/TSS for observed y and predictions yhat, where
// TSS is computed about the mean of y. Results below 0 indicate a model
// worse than predicting the mean; callers decide whether to clamp. A
// zero-variance target yields 0.
func RSquared(y, yhat []float64) float64 {
	if len(y) == 0 || len(y) != len(yhat) {
		return 0
	}
	my := Mean(y)
	var rss, tss float64
	for i, v := range y {
		r := v - yhat[i]
		rss += r * r
		d := v - my
		tss += d * d
	}
	if tss <= 0 {
		return 0
	}
	return 1 - rss/tss
}

// AdjustedRSquared applies Wherry's correction for p predictors and n data
// points: 1 - (1 - r2) * (n-1)/(n-p). When n <= p the correction is
// undefined; we return 0 (no evidence).
func AdjustedRSquared(r2 float64, n, p int) float64 {
	if n <= p || n < 2 {
		return 0
	}
	return 1 - (1-r2)*float64(n-1)/float64(n-p)
}

// ExplainedVarianceMean averages, over the columns of Y, the fraction of
// variance explained by the matching columns of Yhat (each clamped to
// [0, 1]). This is the multi-target r^2 summary used by the joint scorers.
func ExplainedVarianceMean(y, yhat *linalg.Matrix) float64 {
	if y.Rows != yhat.Rows || y.Cols != yhat.Cols || y.Cols == 0 {
		return 0
	}
	var total float64
	for j := 0; j < y.Cols; j++ {
		r2 := strideRSquared(y.Data, yhat.Data, j, y.Cols)
		if r2 < 0 {
			r2 = 0
		}
		if r2 > 1 {
			r2 = 1
		}
		total += r2
	}
	return total / float64(y.Cols)
}

// strideRSquared is RSquared over column j of two row-major buffers of the
// given row stride, read in place. The accumulation order per column is
// RSquared's (mean, then rss and tss, rows ascending), so the result is
// bitwise the one RSquared returns on extracted columns.
func strideRSquared(y, yhat []float64, j, stride int) float64 {
	n := len(y) / stride
	if n == 0 {
		return 0
	}
	var sum float64
	for i := j; i < len(y); i += stride {
		sum += y[i]
	}
	my := sum / float64(n)
	var rss, tss float64
	for i := j; i < len(y); i += stride {
		r := y[i] - yhat[i]
		rss += r * r
		d := y[i] - my
		tss += d * d
	}
	if tss <= 0 {
		return 0
	}
	return 1 - rss/tss
}
