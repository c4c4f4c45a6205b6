package main

import (
	"context"
	"fmt"

	"explainit"
	"explainit/internal/simulator"
)

// session_wide: the same engine used the other way round. Few candidate
// families, each twenty columns wide, and one op is a whole Algorithm-1
// session: rank, condition on the load, rank, condition on what ranked
// first, rank. Gram/Cholesky kernels and reuse of the factored
// conditioning prefix dominate; per-candidate overhead is small.

func sessionWideSizes(smoke bool) engineSizes {
	if smoke {
		return engineSizes{families: 24, seriesPerFamily: 4, rows: 96}
	}
	return engineSizes{families: 48, seriesPerFamily: 20, rows: 288}
}

// sessionWideTail: between 130 and 180 sessions fit the window.
const sessionWideTail = 90

// session runs one three-step investigation and returns the cause's rank
// in the step conditioned on the load alone. (After step 3 conditions on a
// sibling effect of the same fault, the fault is explained away and the
// cause is not expected near the top, so that step is not checked.)
func session(c *explainit.Client, target, cause string) (int, error) {
	ctx := context.Background()
	inv, err := c.NewInvestigation(target, explainit.InvestigateOptions{})
	if err != nil {
		return 0, err
	}
	defer inv.Close()
	if _, err := inv.Step(ctx); err != nil {
		return 0, fmt.Errorf("step 1: %w", err)
	}
	if err := inv.Condition(simulator.StressLoad); err != nil {
		return 0, err
	}
	second, err := inv.Step(ctx)
	if err != nil {
		return 0, fmt.Errorf("step 2: %w", err)
	}
	if len(second.Rows) == 0 {
		return 0, fmt.Errorf("step 2 ranked nothing")
	}
	if err := inv.Condition(second.Rows[0].Family); err != nil {
		return 0, err
	}
	third, err := inv.Step(ctx)
	if err != nil {
		return 0, fmt.Errorf("step 3: %w", err)
	}
	if len(third.Rows) == 0 {
		return 0, fmt.Errorf("step 3 ranked nothing")
	}
	hist := inv.History()
	if len(hist) != 3 || !hist[2].ReusedConditioning {
		return 0, fmt.Errorf("step 3 did not extend step 2's conditioning factorization")
	}
	rank := causeRankInRanking(second, cause)
	if rank > maxCauseRank {
		return rank, fmt.Errorf("cause %s at rank %d for %s given load, want <= %d", cause, rank, target, maxCauseRank)
	}
	return rank, nil
}

func runSessionWide(rc *runCtx) error {
	sizes := sessionWideSizes(rc.smoke)
	var st *engineState
	teardown, err := rc.timeSetup(func() (func(), error) {
		var err error
		if st, err = newEngineState(rc, sizes); err != nil {
			return nil, err
		}
		return st.close, warmup(func(i int) error {
			_, err := session(st.client, st.target(i), st.cause)
			return err
		})
	})
	if err != nil {
		return err
	}
	defer teardown()
	st.recordSetupFacts(rc)

	f := len(st.client.Families())
	candidates := (f - 1) + (f - 2) + (f - 3) // each step skips the target and its conditioning set
	st.runWindow(rc, "explainit.Investigation", sessionWideTail, candidates, func(seq int) (int, error) {
		return session(st.client, st.target(seq), st.cause)
	})
	r := rc.res
	r.note("op = one 3-step Investigation session, 1 closed-loop client; work = candidate families scored (%d per session)", candidates)
	if rc.traced() {
		if err := engineProbes(rc, st, sizes, true, probeBudget(rc)); err != nil {
			return err
		}
		// How much of one session the conditioning design's factorization
		// and its kernels account for.
		factor := r.values["regress.design_ms"] + r.values["linalg.gram_ms"] + r.values["linalg.cholesky_ms"]
		r.set("core.factor_share_of_session", ratio(factor, r.values["op_p50_ms"]))
	}
	return nil
}
