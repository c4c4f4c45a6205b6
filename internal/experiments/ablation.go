package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"time"

	"explainit/internal/core"
	"explainit/internal/linalg"
	"explainit/internal/regress"
	"explainit/internal/sqlexec"
	"explainit/internal/stats"
)

// Ablations measures the design choices DESIGN.md calls out: dense arrays
// vs per-point maps, broadcast/hash join vs cross product, random
// projection vs PCA truncation, dual- vs primal-form ridge, and
// time-contiguous vs shuffled CV folds.
func Ablations() (*Report, error) {
	rep := newReport("ablation", "design-choice ablations")
	if err := ablateDenseArrays(rep); err != nil {
		return nil, err
	}
	if err := ablateBroadcastJoin(rep); err != nil {
		return nil, err
	}
	if err := ablateProjectionVsPCA(rep); err != nil {
		return nil, err
	}
	if err := ablateRidgeDual(rep); err != nil {
		return nil, err
	}
	if err := ablateCVFolds(rep); err != nil {
		return nil, err
	}
	if err := ablateSerialization(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// ablateSerialization reproduces §6.2's measurement that serialisation is a
// larger share of per-family scoring time for cheap univariate scorers
// ("about 25%") than for the expensive joint scorers ("only about 5%"):
// each hypothesis payload (X, Y) takes a gob encode+decode round trip, the
// wire cost of shipping it to a scoring kernel, and the decoded matrices
// are scored. The share is serialisation time over serialisation plus
// compute time, summed over the candidates.
func ablateSerialization(rep *Report) error {
	rng := rand.New(rand.NewSource(45))
	n, p := 1440, 60
	y := linalg.GaussianMatrix(rng, n, 1)
	xs := make([]*linalg.Matrix, 12)
	for i := range xs {
		xs[i] = linalg.GaussianMatrix(rng, n, p)
	}
	uni, err := serializationShare(&core.CorrScorer{UseMax: true}, xs, y)
	if err != nil {
		return err
	}
	joint, err := serializationShare(&core.L2Scorer{Seed: 1}, xs, y)
	if err != nil {
		return err
	}
	rep.Metrics["serialization_univariate"] = uni
	rep.Metrics["serialization_joint"] = joint
	rep.Printf("gob serialisation share of score time: %.0f%% univariate vs %.0f%% joint (paper §6.2: ~25%% vs ~5%%)",
		100*uni, 100*joint)
	return nil
}

// hypothesis is the wire payload of one scoring request.
type hypothesis struct {
	X, Y *linalg.Matrix
}

// serializationShare scores each x against y after a gob round trip of the
// pair and returns the serialisation share of the total time.
func serializationShare(scorer core.Scorer, xs []*linalg.Matrix, y *linalg.Matrix) (float64, error) {
	// One encoder/decoder pair over one stream, as on a kept-open
	// connection: gob sends the type description once, not per hypothesis.
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	var ser, compute time.Duration
	for _, x := range xs {
		start := time.Now()
		if err := enc.Encode(hypothesis{X: x, Y: y}); err != nil {
			return 0, err
		}
		var h hypothesis
		if err := dec.Decode(&h); err != nil {
			return 0, err
		}
		ser += time.Since(start)
		start = time.Now()
		if _, err := scorer.Score(h.X, h.Y, nil, nil); err != nil {
			return 0, err
		}
		compute += time.Since(start)
	}
	return ser.Seconds() / (ser + compute).Seconds(), nil
}

// ablateDenseArrays compares correlation over a dense row-major matrix with
// the same computation over a naive map-of-points representation (§4.2's
// "at least 10x slower without array optimisations").
func ablateDenseArrays(rep *Report) error {
	rng := rand.New(rand.NewSource(41))
	T, p := 1440, 64
	dense := linalg.GaussianMatrix(rng, T, p)
	y := linalg.GaussianMatrix(rng, T, 1)

	// Naive representation: one map per timestamp.
	maps := make([]map[string]float64, T)
	names := make([]string, p)
	for j := range names {
		names[j] = "m" + itoa(j)
	}
	for i := 0; i < T; i++ {
		row := make(map[string]float64, p)
		for j := 0; j < p; j++ {
			row[names[j]] = dense.At(i, j)
		}
		maps[i] = row
	}

	start := time.Now()
	stats.CorrelationMatrix(dense, y)
	denseDur := time.Since(start)

	start = time.Now()
	// Same correlation computed by walking the maps column by column.
	yCol := y.Col(0)
	for _, name := range names {
		col := make([]float64, T)
		for i := 0; i < T; i++ {
			col[i] = maps[i][name]
		}
		stats.Pearson(col, yCol)
	}
	mapDur := time.Since(start)

	speedup := float64(mapDur) / float64(denseDur)
	rep.Metrics["dense_speedup"] = speedup
	rep.Printf("dense arrays vs per-point maps (T=%d, p=%d): %v vs %v (%.1fx)",
		T, p, denseDur.Round(time.Microsecond), mapDur.Round(time.Microsecond), speedup)
	return nil
}

// ablateBroadcastJoin compares hypothesis-table materialisation via the
// hash/broadcast equi-join against the naive cross product + filter (§4.2).
func ablateBroadcastJoin(rep *Report) error {
	// A feature-family table with many rows against a small target table.
	ff := sqlexec.NewRelation("timestamp", "v")
	target := sqlexec.NewRelation("timestamp", "y")
	n := 1440
	for i := 0; i < n; i++ {
		_ = ff.AddRow(sqlexec.Number(float64(i)), sqlexec.Number(float64(i)*2))
		_ = target.AddRow(sqlexec.Number(float64(i)), sqlexec.Number(float64(i)*3))
	}
	cat := sqlexec.NewMemCatalog()
	cat.Register("ff", ff)
	cat.Register("target", target)

	start := time.Now()
	joined, err := sqlexec.RunStatement(context.Background(), `SELECT ff.timestamp, v, y FROM ff JOIN target ON ff.timestamp = target.timestamp`, cat, nil)
	if err != nil {
		return err
	}
	hashDur := time.Since(start)

	start = time.Now()
	cross := sqlexec.CrossProduct(ff, target)
	matched := 0
	for _, row := range cross.Rows {
		if sqlexec.Equal(row[0], row[2]) {
			matched++
		}
	}
	crossDur := time.Since(start)

	if joined.NumRows() != n || matched != n {
		rep.Printf("WARNING: join row counts differ (%d vs %d)", joined.NumRows(), matched)
	}
	speedup := float64(crossDur) / float64(hashDur)
	rep.Metrics["join_speedup"] = speedup
	rep.Printf("broadcast/hash join vs cross product (%d rows): %v vs %v (%.0fx)",
		n, hashDur.Round(time.Microsecond), crossDur.Round(time.Millisecond), speedup)
	return nil
}

// ablateProjectionVsPCA demonstrates §4.2's observation that PCA can hurt
// scoring: the anomaly that explains the target lives in a low-variance
// direction that PCA truncation discards, while a random projection
// preserves a share of every direction.
func ablateProjectionVsPCA(rep *Report) error {
	rng := rand.New(rand.NewSource(42))
	// The paper's failure mode needs more "normal behaviour" variance
	// directions than the truncation dimension d: PCA then spends its
	// entire budget modelling routine variation and throws the anomaly
	// away, while a random projection keeps a share of every direction.
	n, p, d := 500, 120, 20
	factors := 30 // normal-behaviour latent factors, each > anomaly variance
	loadings := linalg.GaussianMatrix(rng, factors, p)
	x := linalg.NewMatrix(n, p)
	pulse := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for f := 0; f < factors; f++ {
			// Factor strengths 7.5..15: every factor direction carries more
			// variance than the anomaly, so variance-ranked truncation
			// spends all d dimensions on them.
			strength := 15 * (0.5 + float64(f)/float64(factors))
			fv := strength * rng.NormFloat64()
			for j := 0; j < p; j++ {
				row[j] += fv * loadings.At(f, j) / 8
			}
		}
		if i%100 >= 70 && i%100 < 85 {
			pulse[i] = 1
		}
		// The anomaly: a pulse on a handful of features, low-variance
		// relative to every normal factor.
		for j := 0; j < 10; j++ {
			row[j] += 4 * pulse[i]
		}
		for j := 0; j < p; j++ {
			row[j] += 0.3 * rng.NormFloat64()
		}
	}
	y := linalg.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		y.Set(i, 0, 5*pulse[i]+0.2*rng.NormFloat64())
	}

	pcaX := regress.PCATruncate(x, d, 60)
	pcaScore, err := regress.CrossValidatedScore(pcaX, y, regress.DefaultLambdaGrid, 5)
	if err != nil {
		return err
	}
	// Average a few random projections as the engine does.
	var projScore float64
	const draws = 3
	for k := 0; k < draws; k++ {
		projX := regress.Project(rng, x, d)
		s, err := regress.CrossValidatedScore(projX, y, regress.DefaultLambdaGrid, 5)
		if err != nil {
			return err
		}
		projScore += s / draws
	}
	fullScore, err := regress.CrossValidatedScore(x, y, regress.DefaultLambdaGrid, 5)
	if err != nil {
		return err
	}
	rep.Metrics["pca_score"] = pcaScore
	rep.Metrics["projection_score"] = projScore
	rep.Metrics["full_score"] = fullScore
	rep.Printf("anomaly-in-low-variance-direction: full L2 score %.3f | random projection(d=%d) %.3f | PCA(d=%d) %.3f",
		fullScore, d, projScore, d, pcaScore)
	return nil
}

// ablateRidgeDual verifies the dual form wins when features outnumber rows.
func ablateRidgeDual(rep *Report) error {
	rng := rand.New(rand.NewSource(43))
	n, p := 300, 1500 // wide: dual solves an n x n system instead of p x p
	x := linalg.GaussianMatrix(rng, n, p)
	y := linalg.GaussianMatrix(rng, n, 1)

	start := time.Now()
	if _, err := regress.FitRidge(x, y, 1); err != nil { // picks the dual path
		return err
	}
	dualDur := time.Since(start)

	// Force the primal path by explicit normal equations.
	start = time.Now()
	xs := x.Clone()
	xs.StandardizeColumns()
	ys := y.Clone()
	ys.CenterColumns(ys.ColMeans())
	gram := xs.Gram().AddDiag(1 + 1e-10)
	xty, err := xs.MulT(ys)
	if err != nil {
		return err
	}
	if _, err := linalg.SolveSPD(gram, xty); err != nil {
		return err
	}
	primalDur := time.Since(start)

	speedup := float64(primalDur) / float64(dualDur)
	rep.Metrics["dual_speedup"] = speedup
	rep.Printf("ridge with p=%d >> n=%d: dual %v vs primal %v (%.1fx)",
		p, n, dualDur.Round(time.Microsecond), primalDur.Round(time.Millisecond), speedup)
	return nil
}

// ablateCVFolds quantifies the leakage of shuffled folds on autocorrelated
// data (§3.5's warning about overlapping train/validation time ranges).
func ablateCVFolds(rep *Report) error {
	rng := rand.New(rand.NewSource(44))
	n := 600
	// Random-walk target; features are noisy lags of it.
	y := linalg.NewMatrix(n, 1)
	walk := 0.0
	for i := 0; i < n; i++ {
		walk += rng.NormFloat64()
		y.Set(i, 0, walk)
	}
	x := linalg.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			src := i - 1 - j
			if src < 0 {
				src = 0
			}
			x.Set(i, j, y.At(src, 0)+0.5*rng.NormFloat64())
		}
	}
	tsFolds, err := regress.TimeSeriesFolds(n, 5)
	if err != nil {
		return err
	}
	shFolds, err := regress.ShuffledFolds(n, 5, 99)
	if err != nil {
		return err
	}
	tsRes, err := regress.CrossValidate(regress.RidgeFitter, x, y, regress.DefaultLambdaGrid, tsFolds)
	if err != nil {
		return err
	}
	shRes, err := regress.CrossValidate(regress.RidgeFitter, x, y, regress.DefaultLambdaGrid, shFolds)
	if err != nil {
		return err
	}
	rep.Metrics["cv_contiguous"] = tsRes.Score
	rep.Metrics["cv_shuffled"] = shRes.Score
	rep.Metrics["cv_inflation"] = shRes.Score - tsRes.Score
	rep.Printf("random-walk target, lagged features: contiguous CV %.3f vs shuffled CV %.3f (inflation %+.3f)",
		tsRes.Score, shRes.Score, shRes.Score-tsRes.Score)
	if math.IsNaN(tsRes.Score) || math.IsNaN(shRes.Score) {
		rep.Printf("WARNING: NaN CV score")
	}
	return nil
}
