package explainit

import (
	"fmt"
	"time"

	"explainit/internal/causal"
	"explainit/internal/core"
	"explainit/internal/stats"
)

// SuggestExplainRange scans the target family for its most anomalous
// contiguous window (robust z-scores over a median/MAD baseline) and
// returns it as a time range suitable for ExplainOptions.ExplainFrom/To —
// an automatic version of the operator's highlighted range in Figure 2.
// ok is false when the target contains no window above the threshold.
func (c *Client) SuggestExplainRange(target string, threshold float64) (from, to time.Time, ok bool, err error) {
	from, to, _, ok, err = c.anomalousWindow(target, threshold)
	return from, to, ok, err
}

// anomalousWindow is the scan behind SuggestExplainRange and the ON
// ANOMALY watcher gate: the target's most anomalous contiguous window as a
// time range plus its severity (mean absolute robust z-score).
func (c *Client) anomalousWindow(target string, threshold float64) (from, to time.Time, severity float64, ok bool, err error) {
	f, err := c.reg.Load().family(target, "target family")
	if err != nil {
		return time.Time{}, time.Time{}, 0, false, err
	}
	if f.Index == nil {
		return time.Time{}, time.Time{}, 0, false, fmt.Errorf("explainit: family %q has no time index", target)
	}
	w, found := stats.DetectAnomalousWindow(f.Matrix.Col(0), threshold, 5)
	if !found {
		return time.Time{}, time.Time{}, 0, false, nil
	}
	from = f.Index[w.Start]
	last := w.End
	if last >= len(f.Index) {
		last = len(f.Index) - 1
		to = f.Index[last].Add(time.Nanosecond)
	} else {
		to = f.Index[last]
	}
	return from, to, w.Severity, true, nil
}

// CausalEdge is one family in the discovered local structure.
type CausalEdge struct {
	Family string
	Score  float64
	// Cause is true when the collider rule oriented the edge into the
	// target — strong evidence the family is a cause rather than an
	// effect or a co-symptom.
	Cause bool
}

// CausalStructure is the result of DiscoverStructure.
type CausalStructure struct {
	Target     string
	Neighbours []CausalEdge
	// Removed maps pruned families to the families that explained away
	// their correlation with the target (empty = marginally independent).
	Removed map[string][]string
}

// DiscoverStructure runs a local PC-style causal search around the target
// (§3.3's reduction of chain/fork/collider testing to hypothesis scoring):
// families whose correlation with the target is explained away by others
// are pruned (with the separating set recorded), and marginally
// independent neighbour pairs that become dependent given the target are
// oriented as causes. maxConditioningSize bounds the search (1 is cheap
// and usually sufficient; cost grows exponentially).
func (c *Client) DiscoverStructure(target string, searchSpace []string, maxConditioningSize int) (*CausalStructure, error) {
	reg := c.reg.Load()
	tf, err := reg.family(target, "target family")
	if err != nil {
		return nil, err
	}
	var candidates []*core.Family
	for _, name := range searchSpace {
		f, err := reg.family(name, "search-space family")
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, f)
	}
	if len(searchSpace) == 0 {
		for _, name := range reg.order {
			if name != target {
				candidates = append(candidates, reg.byName[name])
			}
		}
	}
	st, err := causal.LocalStructure(tf, candidates, causal.Options{
		MaxConditioningSize: maxConditioningSize,
	})
	if err != nil {
		return nil, err
	}
	out := &CausalStructure{Target: st.Target, Removed: st.Removed}
	for _, e := range st.Neighbours {
		out.Neighbours = append(out.Neighbours, CausalEdge{Family: e.Family, Score: e.Score, Cause: e.Oriented})
	}
	return out, nil
}
