package explainit

import (
	"context"
	"fmt"
	"io"
	"time"

	"explainit/internal/connector"
	"explainit/internal/core"
)

// LoadLogs ingests timestamped log lines ("<RFC3339 timestamp> <message>")
// as counting time series: each distinct message template becomes one
// metric series (metric "log_template", tag template=<template>) counting
// occurrences per minute. This is the paper's "text time series" extension:
// once counted, log templates rank like any other family.
func (c *Client) LoadLogs(r io.Reader) (lines, templates int, err error) {
	return connector.LoadLogs(c.db, r, connector.LogOptions{})
}

// Lag augments a defined family with lagged copies of its features (§3.5:
// "the user could specify lagged features from the past"). The augmented
// family replaces the original under the same name.
func (c *Client) Lag(family string, lags ...int) error {
	f, err := c.reg.Load().family(family, "family")
	if err != nil {
		return err
	}
	lagged, err := core.WithLags(f, lags)
	if err != nil {
		return err
	}
	c.registerFamilies([]*core.Family{lagged}, false)
	return nil
}

// Correction selects a multiple-testing correction for ExplainAdjusted.
type Correction string

// Supported corrections (Appendix A.2 of the paper).
const (
	CorrectionBonferroni Correction = "bonferroni"
	CorrectionBH         Correction = "benjamini-hochberg"
)

// AdjustedRanking extends a Ranking with multiplicity-adjusted p-values.
type AdjustedRanking struct {
	Ranking
	// AdjustedPValues aligns with Rows.
	AdjustedPValues []float64
	// Significant marks rows whose adjusted p-value is below the alpha
	// passed to ExplainAdjusted.
	Significant []bool
}

// ExplainAdjusted runs Explain and additionally applies a multiple-testing
// correction across all scored hypotheses, flagging which results remain
// statistically significant at the given alpha. The paper found that with
// a day of minutely data the top-20 typically survive even Bonferroni —
// this makes that check explicit.
func (c *Client) ExplainAdjusted(opts ExplainOptions, method Correction, alpha float64) (*AdjustedRanking, error) {
	ranking, err := c.Explain(opts)
	if err != nil {
		return nil, err
	}
	// Reconstruct a score table from the ranking to reuse the correction
	// machinery; the total test count is the whole search space.
	table := &core.ScoreTable{}
	for _, row := range ranking.Rows {
		table.Results = append(table.Results, core.Result{
			Family: row.Family,
			Score:  row.Score,
			PValue: row.PValue,
		})
	}
	total := len(opts.SearchSpace)
	if total == 0 {
		total = len(c.reg.Load().byName)
	}
	var m core.CorrectionMethod
	switch method {
	case CorrectionBH:
		m = core.BenjaminiHochberg
	case CorrectionBonferroni, "":
		m = core.Bonferroni
	default:
		return nil, fmt.Errorf("explainit: unknown correction %q", method)
	}
	adjusted := table.AdjustPValues(m, total)
	out := &AdjustedRanking{Ranking: *ranking, AdjustedPValues: adjusted}
	out.Significant = make([]bool, len(adjusted))
	for i, p := range adjusted {
		out.Significant[i] = p < alpha
	}
	return out, nil
}

// ExplainMulti runs several ranking queries and fuses their results with
// reciprocal-rank fusion — the "results from multiple queries" improvement
// the paper's conclusion sketches. Each query is an ExplainOptions; all
// must target families defined on this client. The call counts as one
// explain request.
func (c *Client) ExplainMulti(queries []ExplainOptions) ([]MergedFamily, error) {
	defer c.noteRequest(metExplainReqs, c.now())
	if len(queries) == 0 {
		return nil, fmt.Errorf("explainit: no queries to merge")
	}
	tables := make([]*core.ScoreTable, 0, len(queries))
	for i, q := range queries {
		ranking, _, err := c.rank(context.Background(), rankSpec{ExplainOptions: q}, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("explainit: query %d: %w", i, err)
		}
		table := &core.ScoreTable{}
		for _, row := range ranking.Rows {
			table.Results = append(table.Results, core.Result{Family: row.Family, Score: row.Score})
		}
		tables = append(tables, table)
	}
	merged := core.RankMerge(tables)
	out := make([]MergedFamily, len(merged))
	for i, m := range merged {
		out[i] = MergedFamily{Family: m.Family, Score: m.Score, Queries: m.Queries, BestRank: m.BestRank}
	}
	return out, nil
}

// MergedFamily is one family in a fused multi-query ranking.
type MergedFamily struct {
	Family   string
	Score    float64
	Queries  int
	BestRank int
}

// Overlay renders the observed-vs-predicted diagnostic chart for one
// candidate family against the target (Figures 14/15 in the paper): the
// visual check that a single score cannot replace.
func (c *Client) Overlay(target, candidate string, condition []string, width, height int) (string, error) {
	reg := c.reg.Load()
	y, err := reg.family(target, "target family")
	if err != nil {
		return "", err
	}
	x, err := reg.family(candidate, "candidate family")
	if err != nil {
		return "", err
	}
	var z *core.Family
	if len(condition) > 0 {
		fams := make([]*core.Family, 0, len(condition))
		for _, name := range condition {
			f, err := reg.family(name, "conditioning family")
			if err != nil {
				return "", err
			}
			fams = append(fams, f)
		}
		var err error
		z, err = core.ConcatFamilies("Z", fams)
		if err != nil {
			return "", err
		}
	}
	return core.PredictionOverlay(x, y, z, width, height)
}

// Pseudotime is a convenience: the bounds-derived explain window covering
// the final fraction of the data (e.g. 0.25 = last quarter), useful when an
// incident is "recent".
func (c *Client) RecentWindow(fraction float64) (from, to time.Time, err error) {
	lo, hi, ok := c.Bounds()
	if !ok {
		return time.Time{}, time.Time{}, fmt.Errorf("explainit: no data loaded")
	}
	if fraction <= 0 || fraction > 1 {
		return time.Time{}, time.Time{}, fmt.Errorf("explainit: fraction must be in (0, 1]")
	}
	span := hi.Sub(lo)
	from = hi.Add(-time.Duration(float64(span) * fraction))
	return from, hi, nil
}
