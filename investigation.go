package explainit

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"explainit/internal/core"
)

// InvestigateOptions configures an Investigation session. Unlike
// ExplainOptions there is no Target field (the target is the session's
// identity, passed to NewInvestigation) and Condition seeds only the
// *initial* conditioning set — Condition/Drop evolve it between steps.
type InvestigateOptions struct {
	// Condition seeds the conditioning set (may be empty).
	Condition []string
	// Pseudocause conditions every step on the seasonal + trend component
	// of the target (§3.4). The pseudocause family is computed once and
	// pinned for the whole session, ordered before the user's conditioning
	// families so growing the set extends — never invalidates — the cached
	// factorization.
	Pseudocause       bool
	PseudocausePeriod int
	// SearchSpace restricts candidates; empty means all defined families.
	SearchSpace []string
	// Scorer selects the scoring algorithm; default L2.
	Scorer ScorerName
	// TopK bounds each step's result table (default 20).
	TopK int
	// Workers bounds scoring parallelism (default GOMAXPROCS).
	Workers int
	// Seed makes projection-based scorers reproducible.
	Seed int64
	// ExplainFrom/ExplainTo optionally highlight the event to explain.
	ExplainFrom, ExplainTo time.Time
}

// StepRecord is one entry of an Investigation's history: which conditioning
// set a step ranked under, what led, and whether the step reused the
// previous step's conditioning factorization.
type StepRecord struct {
	// Step numbers from 1 in session order.
	Step int
	// Condition is the conditioning set the step ranked under (pseudocause
	// included, as "pseudocause(<target>)").
	Condition []string
	// TopFamily is the highest-ranked family ("" when the step returned no
	// rows).
	TopFamily string
	// Rows is the number of ranked rows returned.
	Rows int
	// ReusedConditioning reports whether the step's conditioning design was
	// carried over (reused or delta-extended) from an earlier step instead
	// of being factored from scratch.
	ReusedConditioning bool
	// Elapsed is the wall time of the ranking.
	Elapsed time.Duration
}

// Investigation is an iterative root-cause session — the session form of
// the paper's Algorithm 1 loop: rank (Step), condition on what the ranking
// surfaced (Condition), re-rank, and repeat until the incident is
// isolated. The session pins the residualized target and the factored
// conditioning design across steps: when step k+1's conditioning set
// extends step k's, only the delta families are standardized and factored
// (see core.PrepareConditioning / regress.ExtendDesign), so iterating is
// cheap exactly where the workflow iterates.
//
// An Investigation holds only session state; each step runs the client's
// one ranking path (Client.rank) over it. It is safe for concurrent use,
// but steps are serialized: a Step/ExplainStream while another is running
// fails with ErrStepInProgress rather than racing the conditioning cache.
type Investigation struct {
	client     *Client
	target     *core.Family
	targetName string
	opts       InvestigateOptions
	gen        uint64       // family-registry generation the target was pinned at
	pseudo     *core.Family // pinned pseudocause family, when requested

	mu       sync.Mutex
	cond     []string                   // current conditioning set, ordered
	condFams map[string]*core.Family    // pinned pointers for names in cond
	states   map[string]*core.CondState // conditioning signature -> state
	history  []StepRecord
	stepping bool
	closed   bool
}

// NewInvestigation opens an iterative explain session for the target
// family. The target (and the pseudocause, when requested) are resolved
// and pinned now: rebuilding families mid-session changes future steps'
// candidates but never the session's target or cached conditioning work.
func (c *Client) NewInvestigation(target string, opts InvestigateOptions) (*Investigation, error) {
	reg := c.reg.Load()
	fam, err := reg.family(target, "target family")
	if err != nil {
		return nil, err
	}
	if _, err := scorerFor(opts.Scorer, opts.Seed); err != nil {
		return nil, err
	}
	inv := &Investigation{
		client:     c,
		target:     fam,
		targetName: target,
		opts:       opts,
		gen:        reg.gen,
		condFams:   make(map[string]*core.Family),
		states:     make(map[string]*core.CondState),
	}
	if opts.Pseudocause {
		pc, err := core.Pseudocause(fam, opts.PseudocausePeriod)
		if err != nil {
			return nil, err
		}
		inv.pseudo = pc
	}
	if err := inv.Condition(opts.Condition...); err != nil {
		return nil, err
	}
	return inv, nil
}

// Target returns the session's target family name.
func (inv *Investigation) Target() string { return inv.targetName }

// Condition appends families to the conditioning set for subsequent steps
// — the "now control for what step k surfaced" move of Algorithm 1. Names
// already in the set are ignored; unknown names fail with
// ErrUnknownFamily and leave the set unchanged.
func (inv *Investigation) Condition(families ...string) error {
	reg := inv.client.reg.Load()
	resolved := make(map[string]*core.Family, len(families))
	for _, name := range families {
		f, err := reg.family(name, "conditioning family")
		if err != nil {
			return err
		}
		resolved[name] = f
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.closed {
		return ErrInvestigationClosed
	}
	for _, name := range families {
		if _, ok := inv.condFams[name]; ok {
			continue
		}
		inv.cond = append(inv.cond, name)
		inv.condFams[name] = resolved[name]
	}
	return nil
}

// Drop removes families from the conditioning set. Names not currently in
// the set fail with ErrUnknownFamily and leave the set unchanged. Cached
// factorizations for supersets are kept: re-adding a dropped family later
// reuses them.
func (inv *Investigation) Drop(families ...string) error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.closed {
		return ErrInvestigationClosed
	}
	for _, name := range families {
		if _, ok := inv.condFams[name]; !ok {
			return fmt.Errorf("%w: %q is not in the conditioning set", ErrUnknownFamily, name)
		}
	}
	for _, name := range families {
		delete(inv.condFams, name)
		for i, n := range inv.cond {
			if n == name {
				inv.cond = append(inv.cond[:i], inv.cond[i+1:]...)
				break
			}
		}
	}
	return nil
}

// Conditioning returns the current conditioning set, in order (the pinned
// pseudocause, when enabled, is implicit and not listed).
func (inv *Investigation) Conditioning() []string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return append([]string(nil), inv.cond...)
}

// History returns the step records so far, oldest first.
func (inv *Investigation) History() []StepRecord {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return append([]StepRecord(nil), inv.history...)
}

// Close ends the session; subsequent steps and conditioning edits fail
// with ErrInvestigationClosed. Cached factorizations are released.
func (inv *Investigation) Close() error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	inv.closed = true
	inv.states = nil
	return nil
}

// condSignature is the cache key of one conditioning set.
func condSignature(names []string) string { return strings.Join(names, "\x1f") }

// familyNames lists the families' names, in order.
func familyNames(fams []*core.Family) []string {
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// beginStep marks the session stepping and declares the step: the ranking
// over the pinned target and conditioning families, plus the donor for
// PrepareConditioning. The caller must finishStep exactly once.
func (inv *Investigation) beginStep() (rankSpec, *core.CondState, error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.closed {
		return rankSpec{}, nil, ErrInvestigationClosed
	}
	if inv.stepping {
		return rankSpec{}, nil, ErrStepInProgress
	}
	inv.stepping = true
	// The pseudocause leads the conditioning sequence so user additions
	// extend — never reorder — the cached design's column prefix.
	pin := &sessionPin{gen: inv.gen, target: inv.target}
	if inv.pseudo != nil {
		pin.condition = append(pin.condition, inv.pseudo)
	}
	for _, name := range inv.cond {
		pin.condition = append(pin.condition, inv.condFams[name])
	}
	o := inv.opts
	spec := rankSpec{ExplainOptions: ExplainOptions{
		Target:            inv.targetName,
		Condition:         append([]string(nil), inv.cond...),
		Pseudocause:       inv.pseudo != nil,
		PseudocausePeriod: o.PseudocausePeriod,
		SearchSpace:       o.SearchSpace,
		Scorer:            o.Scorer,
		TopK:              o.TopK,
		Workers:           o.Workers,
		Seed:              o.Seed,
		ExplainFrom:       o.ExplainFrom,
		ExplainTo:         o.ExplainTo,
	}, pin: pin}
	return spec, inv.donorLocked(pin.condition), nil
}

// donorLocked picks the factored state a step's conditioning prepares
// from: the state already factored for exactly this set, else the longest
// factored proper prefix (by family identity), whose design donates the
// unchanged columns' factorization.
func (inv *Investigation) donorLocked(condition []*core.Family) *core.CondState {
	sig := condSignature(familyNames(condition))
	state := inv.states[sig]
	if state != nil && state.Matches(inv.target, condition) {
		return state
	}
	// A state computed before a same-named family was dropped, rebuilt and
	// re-added matches by signature but not by identity: evict it rather
	// than conditioning on stale data.
	delete(inv.states, sig)
	var best *core.CondState
	for _, s := range inv.states {
		if s.PrefixOf(condition) && (best == nil || len(s.Names()) > len(best.Names())) {
			best = s
		}
	}
	if best == nil {
		// No identity donor (every family was rebuilt): offer the evicted
		// stale state instead. PrepareConditioning row-extends its design
		// when the rebuild only appended samples (a window that grew) and
		// verifies that bitwise, so a stale donor can never leak old data —
		// it is either extended with the genuine tail or ignored.
		best = state
	}
	return best
}

// finishStep keeps the step's conditioning state for reuse and, on
// success, appends the step to the history.
func (inv *Investigation) finishStep(spec rankSpec, state *core.CondState, ranking *Ranking, elapsed time.Duration, err error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	inv.stepping = false
	if inv.closed {
		return
	}
	names := familyNames(spec.pin.condition)
	if state != nil {
		inv.states[condSignature(names)] = state
	}
	if err != nil {
		return
	}
	// A step served from the ranking cache still lands in History (it is a
	// step the operator took), with the replay's elapsed time.
	rec := StepRecord{
		Step:      len(inv.history) + 1,
		Condition: names,
		Rows:      len(ranking.Rows),
		Elapsed:   elapsed,
	}
	if state != nil {
		rec.ReusedConditioning = state.Extended()
	}
	if len(ranking.Rows) > 0 {
		rec.TopFamily = ranking.Rows[0].Family
	}
	inv.history = append(inv.history, rec)
}

// Step runs one ranking iteration under the current conditioning set —
// Algorithm 1's inner loop as a session operation. The first step factors
// the conditioning set from scratch; later steps whose set extends an
// earlier one only factor the delta. A cancelled ctx returns ctx.Err()
// promptly with every scoring worker reaped.
func (inv *Investigation) Step(ctx context.Context) (*Ranking, error) {
	c := inv.client
	start := c.now()
	defer c.noteRequest(metStepReqs, start)
	spec, donor, err := inv.beginStep()
	if err != nil {
		return nil, err
	}
	ranking, state, err := c.rank(ctx, spec, donor, nil)
	inv.finishStep(spec, state, ranking, c.now().Sub(start), err)
	return ranking, err
}

// ExplainStream is Step with progressive delivery: scored candidates are
// emitted as workers finish, then a terminal RankUpdate carries the
// completed ranking (recorded in History) or the error. The channel is
// buffered for the whole step, so abandoning it leaks nothing; cancel ctx
// to stop the scoring itself.
func (inv *Investigation) ExplainStream(ctx context.Context) (<-chan RankUpdate, error) {
	c := inv.client
	start := c.now()
	spec, donor, err := inv.beginStep()
	if err != nil {
		c.noteRequest(metStepStreamReqs, start)
		return nil, err
	}
	return c.rankStream(ctx, spec, donor, func(ranking *Ranking, state *core.CondState, err error) {
		inv.finishStep(spec, state, ranking, c.now().Sub(start), err)
		c.noteRequest(metStepStreamReqs, start)
	})
}
