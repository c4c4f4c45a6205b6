package linalg

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L of a symmetric positive
// definite matrix a such that a = L * L^T. It returns ErrSingular when a is
// not positive definite (within a small jitter tolerance).
func Cholesky(a *Matrix) (*Matrix, error) {
	l := new(Matrix)
	if err := choleskyInto(a, l); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto is Cholesky writing the factor into l, which is resized.
func choleskyInto(a, l *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("%w: cholesky of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l.Resize(n, n)
	for j := 0; j < n; j++ {
		var d float64
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d += lrowj[k] * lrowj[k]
		}
		d = a.At(j, j) - d
		// Negated so that a NaN pivot fails too: d <= 0 is false for NaN.
		if !(d > 0) {
			return fmt.Errorf("%w: pivot %d = %g", ErrSingular, j, d)
		}
		ljj := math.Sqrt(d)
		lrowj[j] = ljj
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			lrowi := l.Row(i)
			var s float64
			for k := 0; k < j; k++ {
				s += lrowi[k] * lrowj[k]
			}
			lrowi[j] = (a.At(i, j) - s) * inv
		}
	}
	return nil
}

// SolveCholesky solves a * X = b for X given the Cholesky factor L of a,
// using forward then backward substitution. b may have multiple columns.
func SolveCholesky(l, b *Matrix) (*Matrix, error) {
	x := new(Matrix)
	if err := SolveCholeskyInto(l, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveCholeskyInto is SolveCholesky writing the solution into x, which is
// resized to b's shape (x must not alias b).
func SolveCholeskyInto(l, b, x *Matrix) error {
	n := l.Rows
	if b.Rows != n {
		return fmt.Errorf("%w: solve %dx%d with rhs %dx%d", ErrShape, n, n, b.Rows, b.Cols)
	}
	// Forward substitution: L * Y = B, in place on a copy of b.
	x.Resize(b.Rows, b.Cols)
	copy(x.Data, b.Data)
	for i := 0; i < n; i++ {
		li := l.Row(i)
		xi := x.Row(i)
		for k := 0; k < i; k++ {
			lik := li[k]
			if lik == 0 {
				continue
			}
			xk := x.Row(k)
			for j := range xi {
				xi[j] -= lik * xk[j]
			}
		}
		inv := 1 / li[i]
		for j := range xi {
			xi[j] *= inv
		}
	}
	// Backward substitution: L^T * X = Y.
	for i := n - 1; i >= 0; i-- {
		xi := x.Row(i)
		for k := i + 1; k < n; k++ {
			lki := l.At(k, i)
			if lki == 0 {
				continue
			}
			xk := x.Row(k)
			for j := range xi {
				xi[j] -= lki * xk[j]
			}
		}
		inv := 1 / l.At(i, i)
		for j := range xi {
			xi[j] *= inv
		}
	}
	return nil
}

// ForwardSubst solves L * Y = B for lower-triangular L by forward
// substitution — the first half of SolveCholesky, exposed on its own for
// block factorizations that need L^{-1}B without the backward pass. b may
// have multiple columns.
func ForwardSubst(l, b *Matrix) (*Matrix, error) {
	n := l.Rows
	if l.Cols != n || b.Rows != n {
		return nil, fmt.Errorf("%w: forward subst %dx%d rhs %dx%d", ErrShape, l.Rows, l.Cols, b.Rows, b.Cols)
	}
	y := b.Clone()
	for i := 0; i < n; i++ {
		li := l.Row(i)
		yi := y.Row(i)
		for k := 0; k < i; k++ {
			lik := li[k]
			if lik == 0 {
				continue
			}
			yk := y.Row(k)
			for j := range yi {
				yi[j] -= lik * yk[j]
			}
		}
		inv := 1 / li[i]
		for j := range yi {
			yi[j] *= inv
		}
	}
	return y, nil
}

// CholeskySPD factors a symmetric positive definite a, retrying with a small
// diagonal jitter when the factorisation hits a zero pivot — the standard
// remedy for rank-deficient Gram matrices arising from duplicated or
// constant features. Callers that solve against the same matrix repeatedly
// (e.g. the ridge λ grid) can cache the returned factor and feed it to
// SolveCholesky with many right-hand sides.
func CholeskySPD(a *Matrix) (*Matrix, error) {
	l := new(Matrix)
	if err := CholeskySPDInto(a, l); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskySPDInto is CholeskySPD writing the factor into l, which is
// resized. The jittered retries are the rare path and allocate their
// perturbed copies of a.
func CholeskySPDInto(a, l *Matrix) error {
	err := choleskyInto(a, l)
	if err != nil {
		jittered := a.Clone()
		// Scale jitter to the matrix magnitude so it is negligible for
		// well-conditioned problems but sufficient for degenerate ones.
		scale := jittered.MaxAbs()
		if scale == 0 {
			scale = 1
		}
		jittered.AddDiag(scale * 1e-8)
		if err = choleskyInto(jittered, l); err != nil {
			jittered = a.Clone().AddDiag(scale * 1e-4)
			err = choleskyInto(jittered, l)
		}
	}
	return err
}

// SolveSPD solves a * X = b for a symmetric positive definite a, with the
// jittered-retry behaviour of CholeskySPD.
func SolveSPD(a, b *Matrix) (*Matrix, error) {
	l, err := CholeskySPD(a)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, b)
}
