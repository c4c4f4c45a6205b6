package core

import (
	"context"
	"fmt"
	"sort"

	"explainit/internal/linalg"
	"explainit/internal/regress"
	"explainit/internal/stats"
	"explainit/internal/viz"
)

// CorrectionMethod selects the multiple-testing correction applied to a
// score table (Appendix A.2: with tens of thousands of simultaneous
// hypotheses, raw p-values overstate significance).
type CorrectionMethod int

// Correction methods.
const (
	// Bonferroni controls the family-wise error rate (the paper notes the
	// top-20 survive "even after applying the strict Bonferroni
	// correction").
	Bonferroni CorrectionMethod = iota
	// BenjaminiHochberg controls the false-discovery rate.
	BenjaminiHochberg
)

// AdjustPValues computes multiplicity-adjusted p-values for every result in
// the table (in ranking order) and returns, aligned with Results, the
// adjusted values. totalTests is the number of hypotheses that were scored
// simultaneously — pass 0 to use the table length (correct when the table
// was built with KeepAll).
func (t *ScoreTable) AdjustPValues(method CorrectionMethod, totalTests int) []float64 {
	raw := make([]float64, len(t.Results))
	for i, r := range t.Results {
		raw[i] = r.PValue
	}
	if totalTests > len(raw) {
		// Account for hypotheses truncated out of the table: append
		// p-values of 1 so the correction sees the full test count. They
		// cannot change BH ordering for the retained prefix and only
		// scale Bonferroni, which is the conservative direction.
		padded := make([]float64, totalTests)
		copy(padded, raw)
		for i := len(raw); i < totalTests; i++ {
			padded[i] = 1
		}
		raw = padded
	}
	var adjusted []float64
	switch method {
	case BenjaminiHochberg:
		adjusted = stats.BenjaminiHochberg(raw)
	default:
		adjusted = stats.Bonferroni(raw)
	}
	return adjusted[:len(t.Results)]
}

// SignificantResults returns the results whose adjusted p-value is below
// alpha, preserving rank order.
func (t *ScoreTable) SignificantResults(method CorrectionMethod, totalTests int, alpha float64) []Result {
	adj := t.AdjustPValues(method, totalTests)
	var out []Result
	for i, r := range t.Results {
		if r.Err == nil && adj[i] < alpha {
			out = append(out, r)
		}
	}
	return out
}

// PredictionOverlay fits the best ridge model of y on x (conditioning on z
// when non-nil, exactly as the conditional scorer does) and renders the
// observed-vs-predicted chart the paper stores alongside every score
// (Figures 14/15): spikes the model explains coincide; spikes it cannot
// explain stand alone, which is what lets an operator rule out a
// plausible-looking score.
func PredictionOverlay(x, y, z *Family, width, height int) (string, error) {
	if err := x.Validate(); err != nil {
		return "", err
	}
	if err := y.Validate(); err != nil {
		return "", err
	}
	xm, ym := x.Matrix, y.Matrix
	if z != nil {
		if err := z.Validate(); err != nil {
			return "", err
		}
		var err error
		if xm, ym, err = residualizeBoth(xm, ym, z.Matrix, 10); err != nil {
			return "", err
		}
	}
	lambda, err := bestLambda(context.Background(), xm, ym, regress.DefaultLambdaGrid, 5, new(regress.Scratch))
	if err != nil {
		return "", err
	}
	model, err := regress.FitRidge(xm, ym, lambda)
	if err != nil {
		return "", err
	}
	pred, err := model.Predict(xm)
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("E[%s | %s", y.Name, x.Name)
	if z != nil {
		title += ", " + z.Name
	}
	title += "]"
	return viz.Overlay(title, ym.Col(0), pred.Col(0), width, height), nil
}

// WithLags returns a family augmented with lagged copies of every column
// (the LAG feature preparation of §3.5's footnote): for each lag k the
// column value at row i is the original value at row i-k (clamped at the
// series start). Lag 0 is the family itself and need not be listed.
func WithLags(f *Family, lags []int) (*Family, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	cols := append([]string{}, f.Columns...)
	mats := []*linalg.Matrix{f.Matrix}
	for _, k := range lags {
		if k <= 0 {
			return nil, fmt.Errorf("core: lag must be positive, got %d", k)
		}
		lagged := linalg.NewMatrix(f.Matrix.Rows, f.Matrix.Cols)
		for i := 0; i < f.Matrix.Rows; i++ {
			src := i - k
			if src < 0 {
				src = 0
			}
			copy(lagged.Row(i), f.Matrix.Row(src))
		}
		mats = append(mats, lagged)
		for _, c := range f.Columns {
			cols = append(cols, fmt.Sprintf("lag%d(%s)", k, c))
		}
	}
	m, err := linalg.HStack(mats...)
	if err != nil {
		return nil, err
	}
	return &Family{Name: f.Name, Columns: cols, Index: f.Index, Matrix: m}, nil
}

// RankMerge fuses several score tables for the same target into one ranking
// using reciprocal-rank fusion — the paper's conclusion names "improving
// the ranking using results [from] multiple queries" as the natural next
// step; RRF is the standard model-agnostic way to do it. Families absent
// from a table contribute nothing for that table.
func RankMerge(tables []*ScoreTable) []MergedResult {
	const rrfK = 60 // the conventional RRF damping constant
	type acc struct {
		score    float64
		appears  int
		bestRank int
	}
	accs := make(map[string]*acc)
	for _, t := range tables {
		rank := 0
		for _, r := range t.Results {
			if r.Err != nil {
				continue
			}
			rank++
			a, ok := accs[r.Family]
			if !ok {
				a = &acc{bestRank: rank}
				accs[r.Family] = a
			}
			a.score += 1 / float64(rrfK+rank)
			a.appears++
			if rank < a.bestRank {
				a.bestRank = rank
			}
		}
	}
	out := make([]MergedResult, 0, len(accs))
	for fam, a := range accs {
		out = append(out, MergedResult{
			Family:   fam,
			Score:    a.score,
			Queries:  a.appears,
			BestRank: a.bestRank,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Family < out[j].Family
	})
	return out
}

// MergedResult is one family in a fused ranking.
type MergedResult struct {
	Family   string
	Score    float64 // reciprocal-rank-fusion score
	Queries  int     // how many input rankings contained the family
	BestRank int     // its best rank across the inputs
}
