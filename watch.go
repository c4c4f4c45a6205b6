package explainit

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"explainit/internal/monitor"
	"explainit/internal/sqlexec"
	"explainit/internal/sqlparse"
)

// Standing queries. EXPLAIN ... EVERY <dur> [ON ANOMALY] does not run once
// and return — it registers a watcher that re-evaluates the ranking on the
// cadence and pushes an update only when the answer changes. The watcher
// is gated by the family-registry generation, the one key that validates
// everything derived from families: a tick before the next rebuild
// performs no engine work at all, however much was ingested meanwhile.
// When it does evaluate, it runs the one ranking path an ad-hoc Query
// takes, so every emitted ranking is bitwise identical to a fresh EXPLAIN
// over the same registry (and shares its ranking-cache entry).

// WatchOptions tune the standing-query subsystem. Set them with
// SetWatchOptions before the first Watch/CreateWatch call — the manager is
// built lazily on first use and the options are pinned then.
type WatchOptions struct {
	// Epsilon is the score delta below which a ranking with unchanged
	// order and membership counts as unchanged (no emit). Default 1e-9.
	Epsilon float64
	// AnomalyThreshold is the robust z-score an ON ANOMALY watcher's
	// target must exceed for a window to fire. Default 3.
	AnomalyThreshold float64
}

// RankingUpdate is one emitted change of a standing query's ranking.
type RankingUpdate struct {
	// WatchID names the watcher the update came from.
	WatchID string
	// Seq numbers this watcher's emits from 1; subscriber delivery is
	// latest-wins, so a gap in Seq means intermediate rankings were
	// superseded before this subscriber read them.
	Seq uint64
	At  time.Time
	// Rows is the full ranking at emit time (bitwise identical to a fresh
	// EXPLAIN of the same statement over the same registry).
	Rows []RankedFamily
	// Reason classifies the change: "initial", "membership", "order",
	// "score", or "error".
	Reason string
	// Investigation is the id of the session an ON ANOMALY watcher opened
	// when its first window fired; resolve it with WatchInvestigation to
	// drill into the incident interactively.
	Investigation string
	// AnomalyFrom/To/Severity carry the window that triggered this
	// evaluation (ON ANOMALY watchers only; zero otherwise).
	AnomalyFrom, AnomalyTo time.Time
	AnomalySeverity        float64
	// Err carries an evaluation failure; Rows is then the last good
	// ranking (possibly nil).
	Err error
}

// WatchInfo is one standing query's listing entry.
type WatchInfo struct {
	ID            string    `json:"id"`
	SQL           string    `json:"sql"`
	Tenant        string    `json:"tenant,omitempty"`
	Every         string    `json:"every"`
	OnAnomaly     bool      `json:"on_anomaly,omitempty"`
	Created       time.Time `json:"created"`
	LastEmit      time.Time `json:"last_emit,omitzero"`
	Ticks         uint64    `json:"ticks"`
	Skips         uint64    `json:"skips"`
	Evals         uint64    `json:"evals"`
	Emits         uint64    `json:"emits"`
	Errors        uint64    `json:"errors"`
	Subscribers   int       `json:"subscribers"`
	Investigation string    `json:"investigation,omitempty"`
	AvgEvalMs     float64   `json:"avg_eval_ms"`
	EvalStdMs     float64   `json:"eval_std_ms"`
	EvalWindow    int       `json:"eval_window"`
}

// WatchStats is the subsystem-level counter snapshot for /api/stats.
type WatchStats struct {
	Active int `json:"active"`
	Total  int `json:"total"`
	Shed   int `json:"shed"`
}

const defaultWatchAnomalyThreshold = 3.0

// SetWatchOptions pins the standing-query tuning knobs. It must run before
// the first Watch/CreateWatch; afterwards it has no effect (the running
// manager keeps its options).
func (c *Client) SetWatchOptions(opts WatchOptions) {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if c.mon == nil {
		c.watchOpts = opts
	}
}

// watchManager lazily builds the monitor over the client.
func (c *Client) watchManager() *monitor.Manager {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if c.mon == nil {
		c.mon = monitor.NewManager(&watchBackend{c: c}, monitor.Options{
			Epsilon: c.watchOpts.Epsilon,
		})
		c.watchInvs = make(map[string]*Investigation)
	}
	return c.mon
}

// watchAnomalyThreshold reads the pinned threshold (callable without
// watchMu: the options are immutable once the manager exists).
func (c *Client) watchAnomalyThreshold() float64 {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if c.watchOpts.AnomalyThreshold > 0 {
		return c.watchOpts.AnomalyThreshold
	}
	return defaultWatchAnomalyThreshold
}

// compileStanding parses sql and compiles it into a standing-query plan,
// rejecting anything that is not EXPLAIN ... EVERY. The second return is
// the canonical (round-tripped) statement text used in listings.
func compileStanding(sql string) (sqlexec.ExplainPlan, string, error) {
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return sqlexec.ExplainPlan{}, "", fmt.Errorf("%w: %w", ErrBadSQL, err)
	}
	ex, ok := stmt.(*sqlparse.ExplainStmt)
	if !ok {
		return sqlexec.ExplainPlan{}, "", fmt.Errorf("%w: only EXPLAIN statements can be watched", ErrBadSQL)
	}
	plan, err := sqlexec.CompileExplain(ex)
	if err != nil {
		return sqlexec.ExplainPlan{}, "", fmt.Errorf("%w: %w", ErrBadSQL, err)
	}
	if !plan.Standing() {
		return sqlexec.ExplainPlan{}, "", fmt.Errorf("%w: a watched statement needs an EVERY clause (use Query for one-shot EXPLAIN)", ErrBadSQL)
	}
	return plan, ex.String(), nil
}

func monitorQuery(sql string, plan sqlexec.ExplainPlan) monitor.Query {
	return monitor.Query{
		SQL:       sql,
		Target:    plan.Target,
		Given:     plan.Given,
		Families:  plan.Families,
		From:      plan.From,
		To:        plan.To,
		Limit:     plan.Limit,
		Every:     plan.Every,
		OnAnomaly: plan.OnAnomaly,
	}
}

// Watch registers the standing query and returns its update channel. The
// first update (Reason "initial") arrives as soon as the first evaluation
// completes; afterwards updates arrive only when the ranking changes.
// Cancelling ctx tears the watcher down and closes the channel. For
// explicit lifecycle control (list, cancel by id, multiple subscribers)
// use CreateWatch/WatchSubscribe/CancelWatch instead.
func (c *Client) Watch(ctx context.Context, sql string) (<-chan RankingUpdate, error) {
	info, err := c.CreateWatch(sql, "")
	if err != nil {
		return nil, err
	}
	ch, unsub, err := c.WatchSubscribe(info.ID)
	if err != nil {
		_ = c.CancelWatch(info.ID)
		return nil, err
	}
	out := make(chan RankingUpdate, cap(ch))
	go func() {
		defer close(out)
		defer unsub()
		for {
			select {
			case <-ctx.Done():
				_ = c.CancelWatch(info.ID)
				// Drain until the subsystem closes the channel so the
				// forwarder cannot leak.
				for range ch {
				}
				return
			case u, ok := <-ch:
				if !ok {
					return
				}
				select {
				case out <- u:
				case <-ctx.Done():
					_ = c.CancelWatch(info.ID)
					for range ch {
					}
					return
				}
			}
		}
	}()
	return out, nil
}

// CreateWatch registers a standing query under an id without subscribing.
// tenant is an opaque tag for the serving layer's quota accounting ("" is
// fine in-process).
func (c *Client) CreateWatch(sql, tenant string) (WatchInfo, error) {
	plan, canonical, err := compileStanding(sql)
	if err != nil {
		return WatchInfo{}, err
	}
	if plan.OnAnomaly {
		// Fail fast: an ON ANOMALY watcher scans the target family after
		// every rebuild, so the target must resolve now.
		if _, err := c.reg.Load().family(plan.Target, "target family"); err != nil {
			return WatchInfo{}, err
		}
	}
	w, err := c.watchManager().Add(monitorQuery(canonical, plan), tenant)
	if err != nil {
		return WatchInfo{}, err
	}
	return watchInfoFrom(w.Info()), nil
}

// WatchSubscribe attaches an update channel to a watcher. Delivery is
// latest-wins: a slow subscriber sees the newest ranking, not a backlog. A
// watcher that has already emitted replays its latest update immediately.
// The returned cancel detaches (idempotent); the channel also closes when
// the watcher is cancelled.
func (c *Client) WatchSubscribe(id string) (<-chan RankingUpdate, func(), error) {
	w, ok := c.watchManager().Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("%w %q", ErrUnknownWatch, id)
	}
	src, unsub := w.Subscribe()
	out := make(chan RankingUpdate, cap(src))
	go func() {
		defer close(out)
		for u := range src {
			out <- rankingUpdateFrom(u)
		}
	}()
	return out, unsub, nil
}

// CancelWatch stops a standing query: its loop exits, subscriber channels
// close, and any auto-opened investigation is released.
func (c *Client) CancelWatch(id string) error {
	if err := c.watchManager().Cancel(id); err != nil {
		return fmt.Errorf("%w %q", ErrUnknownWatch, id)
	}
	return nil
}

// WatchInfos lists the live standing queries, creation order.
func (c *Client) WatchInfos() []WatchInfo {
	infos := c.watchManager().List()
	out := make([]WatchInfo, len(infos))
	for i, in := range infos {
		out[i] = watchInfoFrom(in)
	}
	return out
}

// WatchInfo returns one watcher's listing entry.
func (c *Client) WatchInfo(id string) (WatchInfo, error) {
	w, ok := c.watchManager().Get(id)
	if !ok {
		return WatchInfo{}, fmt.Errorf("%w %q", ErrUnknownWatch, id)
	}
	return watchInfoFrom(w.Info()), nil
}

// WatchTenantCount returns how many live watchers a tenant holds (the
// serving layer's quota input).
func (c *Client) WatchTenantCount(tenant string) int {
	return c.watchManager().TenantCount(tenant)
}

// NoteWatchShed records an admission-control rejection of a would-be
// watcher so it surfaces in WatchStats.
func (c *Client) NoteWatchShed() { c.watchManager().NoteShed() }

// WatchStats snapshots the subsystem counters.
func (c *Client) WatchStats() WatchStats {
	s := c.watchManager().Stats()
	return WatchStats{Active: s.Active, Total: s.Total, Shed: s.Shed}
}

// WatchInvestigation resolves the investigation session an ON ANOMALY
// watcher auto-opened (the id rides its RankingUpdates). The session stays
// open until the watcher is cancelled.
func (c *Client) WatchInvestigation(id string) (*Investigation, error) {
	c.watchMu.Lock()
	inv, ok := c.watchInvs[id]
	c.watchMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownInvestigation, id)
	}
	return inv, nil
}

// CloseWatches tears the standing-query subsystem down: every watcher is
// cancelled, subscriber channels close, auto-opened investigations are
// released. Safe to call with no watchers; further CreateWatch calls fail.
func (c *Client) CloseWatches() {
	c.watchMu.Lock()
	mon := c.mon
	c.watchMu.Unlock()
	if mon != nil {
		mon.Close()
	}
}

func watchInfoFrom(in monitor.Info) WatchInfo {
	return WatchInfo{
		ID:            in.ID,
		SQL:           in.SQL,
		Tenant:        in.Tenant,
		Every:         in.Every,
		OnAnomaly:     in.OnAnomaly,
		Created:       in.Created,
		LastEmit:      in.LastEmit,
		Ticks:         in.Ticks,
		Skips:         in.Skips,
		Evals:         in.Evals,
		Emits:         in.Emits,
		Errors:        in.Errors,
		Subscribers:   in.Subscribers,
		Investigation: in.Investigation,
		AvgEvalMs:     in.AvgEvalMs,
		EvalStdMs:     in.EvalStdMs,
		EvalWindow:    in.EvalWindow,
	}
}

func rankingUpdateFrom(u monitor.Update) RankingUpdate {
	out := RankingUpdate{
		WatchID:       u.WatcherID,
		Seq:           u.Seq,
		At:            u.At,
		Reason:        u.Reason,
		Investigation: u.Investigation,
		Err:           u.Err,
	}
	if len(u.Rows) > 0 {
		out.Rows = make([]RankedFamily, len(u.Rows))
		for i, r := range u.Rows {
			out.Rows[i] = RankedFamily{
				Rank:     r.Rank,
				Family:   r.Family,
				Features: r.Features,
				Score:    r.Score,
				PValue:   r.PValue,
				Viz:      r.Viz,
			}
		}
	}
	if u.Anomaly != nil {
		out.AnomalyFrom = u.Anomaly.From
		out.AnomalyTo = u.Anomaly.To
		out.AnomalySeverity = u.Anomaly.Severity
	}
	return out
}

// --- monitor.Backend over the facade ---

type watchBackend struct{ c *Client }

// Generation is the family-registry generation: rankings and the ON
// ANOMALY scan read only the registry, so only a rebuild can change what a
// tick would emit.
func (b *watchBackend) Generation() uint64 { return b.c.reg.Load().gen }

// Evaluate runs the standing plan through the one ranking path — the path
// Query and QueryStream take for the same statement — so the emitted rows
// are bitwise identical to a fresh EXPLAIN over the same registry and
// share its ranking-cache entry. A tick is internal work: it records no request
// metric.
func (b *watchBackend) Evaluate(ctx context.Context, q monitor.Query) ([]monitor.Row, error) {
	final, _, err := b.c.rank(ctx, planSpec(sqlexec.ExplainPlan{
		Target:   q.Target,
		Given:    q.Given,
		Families: q.Families,
		From:     q.From,
		To:       q.To,
		Limit:    q.Limit,
	}), nil, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]monitor.Row, len(final.Rows))
	for i, r := range final.Rows {
		rows[i] = monitor.Row{
			Rank:     r.Rank,
			Family:   r.Family,
			Features: r.Features,
			Score:    r.Score,
			PValue:   r.PValue,
			Viz:      r.Viz,
		}
	}
	return rows, nil
}

// AnomalyScan finds the target's most anomalous contiguous window — the
// same robust z-score scan as SuggestExplainRange, run as the cheap gate
// in front of an ON ANOMALY watcher's EXPLAIN.
func (b *watchBackend) AnomalyScan(_ context.Context, q monitor.Query) (monitor.AnomalyHit, bool, error) {
	from, to, sev, ok, err := b.c.anomalousWindow(q.Target, b.c.watchAnomalyThreshold())
	if err != nil || !ok {
		return monitor.AnomalyHit{}, false, err
	}
	return monitor.AnomalyHit{From: from, To: to, Severity: sev}, true, nil
}

// OpenInvestigation opens the session backing an anomaly-triggered watcher
// and registers it under a "winv-" id so WatchInvestigation (and the HTTP
// layer) can resolve it.
func (b *watchBackend) OpenInvestigation(q monitor.Query) (string, error) {
	inv, err := b.c.NewInvestigation(q.Target, InvestigateOptions{
		Condition:   q.Given,
		SearchSpace: q.Families,
		ExplainFrom: q.From,
		ExplainTo:   q.To,
	})
	if err != nil {
		return "", err
	}
	b.c.watchMu.Lock()
	b.c.nextWatchInv++
	id := "winv-" + strconv.Itoa(b.c.nextWatchInv)
	b.c.watchInvs[id] = inv
	b.c.watchMu.Unlock()
	return id, nil
}

// CloseInvestigation releases a session opened by OpenInvestigation.
func (b *watchBackend) CloseInvestigation(id string) {
	b.c.watchMu.Lock()
	inv, ok := b.c.watchInvs[id]
	delete(b.c.watchInvs, id)
	b.c.watchMu.Unlock()
	if ok {
		_ = inv.Close()
	}
}
