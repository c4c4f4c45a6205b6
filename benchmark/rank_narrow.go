package main

import (
	"context"
	"fmt"
)

// rank_narrow: the paper's core path on the many-candidates axis. One
// operator issues EXPLAIN <target> GIVEN input_load LIMIT 20 in a closed
// loop against thousands of single-series families, ranking cache off, so
// per-candidate CV-ridge cost and worker fan-out do nearly all the work.

func rankNarrowSizes(smoke bool) engineSizes {
	if smoke {
		return engineSizes{families: 60, seriesPerFamily: 1, rows: 96}
	}
	return engineSizes{families: 2000, seriesPerFamily: 1, rows: 288}
}

// rankNarrowTail is the tail percentile: between 120 and 180 ops fit the
// window, so p90 is the highest with ten samples beyond it.
const rankNarrowTail = 90

func runRankNarrow(rc *runCtx) error {
	sizes := rankNarrowSizes(rc.smoke)
	var st *engineState
	// explain issues the op and returns the cause's rank in its answer.
	explain := func(seq int) (int, error) {
		res, err := st.client.Query(context.Background(), explainSQL(st.target(seq)))
		if err != nil {
			return 0, err
		}
		rank := causeRankInResult(res, st.cause)
		if rank > maxCauseRank {
			return rank, fmt.Errorf("cause %s at rank %d for %s, want <= %d", st.cause, rank, st.target(seq), maxCauseRank)
		}
		return rank, nil
	}
	teardown, err := rc.timeSetup(func() (func(), error) {
		var err error
		if st, err = newEngineState(rc, sizes); err != nil {
			return nil, err
		}
		return st.close, warmup(func(i int) error { _, err := explain(i); return err })
	})
	if err != nil {
		return err
	}
	defer teardown()
	st.recordSetupFacts(rc)

	candidates := len(st.client.Families()) - 2 // the target and the conditioning family are skipped
	st.runWindow(rc, "explainit.Query", rankNarrowTail, candidates, explain)
	rc.res.note("op = Client.Query EXPLAIN, 1 closed-loop client; work = candidate families scored (%d per op)", candidates)
	if rc.traced() {
		return engineProbes(rc, st, sizes, false, probeBudget(rc))
	}
	return nil
}
