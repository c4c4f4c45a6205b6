// Package monitor is the standing-query subsystem: it keeps compiled
// EXPLAIN plans materialized and re-evaluates them on a cadence, but only
// when a ranking could have changed — a tick where the backend's
// generation did not advance performs no engine work at all — and only
// emits to subscribers when the ranking actually changed (order,
// membership, or a score moving beyond a configurable epsilon). This turns
// the pull-based RCA query of the paper into the push-based monitoring
// backend of ROADMAP item 2.
//
// The package is deliberately engine-agnostic: everything it needs from
// the facade — the generation, one-shot evaluation, the cheap anomaly
// pre-scan, and investigation lifecycle — arrives through the Backend
// interface, so the subsystem is testable with a fake and free of import
// cycles.
package monitor

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"explainit/internal/obs"
	"explainit/internal/stats"
)

// Query is one standing query: a compiled EXPLAIN plan plus its cadence.
type Query struct {
	// SQL is the canonical statement text (round-tripped through the
	// parser), carried for listings and evaluation-cache keying.
	SQL      string
	Target   string
	Given    []string
	Families []string
	From, To time.Time
	Limit    int // -1 means no limit
	// Every is the re-evaluation cadence.
	Every time.Duration
	// OnAnomaly gates each evaluation on an anomaly pre-scan of the target:
	// the expensive EXPLAIN only runs when a window fires, and the first
	// firing auto-opens an investigation session that rides the update.
	OnAnomaly bool
}

// Row is one ranked candidate in an emitted update (the monitor-side
// mirror of the facade's RankedFamily, kept local to avoid the cycle).
type Row struct {
	Rank     int
	Family   string
	Features int
	Score    float64
	PValue   float64
	Viz      string
}

// AnomalyHit is the window the ON ANOMALY pre-scan fired on.
type AnomalyHit struct {
	From, To time.Time
	Severity float64
}

// Update is one emitted change of a standing query's ranking.
type Update struct {
	WatcherID string
	// Seq numbers this watcher's emits from 1; subscribers detect drops
	// (their buffer is latest-wins) by gaps.
	Seq uint64
	At  time.Time
	// Rows is the ranking at emit time.
	Rows []Row
	// Reason says what changed: "initial", "membership", "order", "score",
	// or "error".
	Reason string
	// Investigation is the id of the auto-opened investigation session for
	// anomaly-triggered watchers ("" otherwise).
	Investigation string
	// Anomaly is the window that triggered this evaluation (ON ANOMALY
	// watchers only).
	Anomaly *AnomalyHit
	// Err carries an evaluation failure; Rows is then the last good
	// ranking (possibly nil).
	Err error
}

// Backend is what the monitor needs from the engine facade.
type Backend interface {
	// Generation names everything Evaluate and AnomalyScan read; it moves
	// whenever their answer could change. The facade returns its
	// family-registry generation: family matrices are materialized at
	// build time, so ingest alone cannot change a ranking until families
	// are rebuilt.
	Generation() uint64
	// Evaluate runs the standing plan as a one-shot EXPLAIN — the exact
	// arithmetic path an ad-hoc query takes, so emitted rankings are
	// bitwise identical to a fresh EXPLAIN at the same generation.
	Evaluate(ctx context.Context, q Query) ([]Row, error)
	// AnomalyScan cheaply scans the target for its most anomalous window.
	AnomalyScan(ctx context.Context, q Query) (AnomalyHit, bool, error)
	// OpenInvestigation opens the investigation session backing an
	// anomaly-triggered watcher and returns its id.
	OpenInvestigation(q Query) (string, error)
	// CloseInvestigation releases a session opened by OpenInvestigation.
	CloseInvestigation(id string)
}

// Options configure a Manager.
type Options struct {
	// Epsilon is the score delta below which two rankings with identical
	// order and membership count as unchanged. Default 1e-9.
	Epsilon float64
	// SubscriberBuffer is each subscriber channel's capacity (latest-wins
	// on overflow). Default 8.
	SubscriberBuffer int
	// Manual disables the background ticker loops; ticks then only happen
	// through Watcher.Tick. For deterministic tests.
	Manual bool
}

// Stats is the manager-level counter snapshot for /api/stats.
type Stats struct {
	Active int `json:"active"`
	Total  int `json:"total"`
	Shed   int `json:"shed"`
}

// Info is one watcher's listing entry.
type Info struct {
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
	// AvgEvalMs / EvalStdMs summarize evaluation latency over a sliding
	// window of recent evaluations (stats.RollingMoments).
	AvgEvalMs  float64 `json:"avg_eval_ms"`
	EvalStdMs  float64 `json:"eval_std_ms"`
	EvalWindow int     `json:"eval_window"`
}

var (
	metWatchers     = obs.Default().Gauge("explainit_watch_active")
	metCreated      = obs.Default().Counter("explainit_watch_created_total")
	metCancelled    = obs.Default().Counter("explainit_watch_cancelled_total")
	metTicks        = obs.Default().Counter("explainit_watch_ticks_total")
	metSkips        = obs.Default().Counter("explainit_watch_ticks_skipped_total")
	metEvals        = obs.Default().Counter("explainit_watch_evals_total")
	metEmits        = obs.Default().Counter("explainit_watch_emits_total")
	metNoChange     = obs.Default().Counter("explainit_watch_unchanged_total")
	metErrs         = obs.Default().Counter("explainit_watch_errors_total")
	metAnomalyQuiet = obs.Default().Counter("explainit_watch_anomaly_quiet_total")
	metAnomalyFired = obs.Default().Counter("explainit_watch_anomaly_fired_total")
	metTickMs       = obs.Default().Histogram("explainit_watch_tick_ms", obs.LatencyBucketsMs)
	metEvalMs       = obs.Default().Histogram("explainit_watch_eval_ms", obs.LatencyBucketsMs)
)

// Manager owns the named watchers. All methods are safe for concurrent
// use.
type Manager struct {
	backend Backend
	opts    Options

	mu       sync.Mutex
	watchers map[string]*Watcher
	nextID   int
	total    int
	shed     int
	closed   bool
	wg       sync.WaitGroup
}

// NewManager builds a manager over the backend.
func NewManager(backend Backend, opts Options) *Manager {
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1e-9
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = 8
	}
	return &Manager{backend: backend, opts: opts, watchers: make(map[string]*Watcher)}
}

// ErrClosed is returned by Add after Close.
var ErrClosed = fmt.Errorf("monitor: manager closed")

// ErrUnknownWatcher is returned for operations on ids not in the registry.
var ErrUnknownWatcher = fmt.Errorf("monitor: unknown watcher")

// Add registers a standing query and starts its re-evaluation loop (unless
// the manager is in Manual mode). The tenant tag is carried opaquely for
// the serving layer's quota accounting.
func (m *Manager) Add(q Query, tenant string) (*Watcher, error) {
	if q.Every <= 0 {
		return nil, fmt.Errorf("monitor: standing query needs a positive cadence, got %s", q.Every)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.nextID++
	m.total++
	id := fmt.Sprintf("w%d", m.nextID)
	ctx, cancel := context.WithCancel(context.Background())
	w := &Watcher{
		id:      id,
		q:       q,
		tenant:  tenant,
		mgr:     m,
		created: time.Now(),
		cancel:  cancel,
		done:    make(chan struct{}),
		subs:    make(map[int]chan Update),
		evalMs:  stats.NewRollingMoments(32),
	}
	m.watchers[id] = w
	metWatchers.Set(float64(len(m.watchers)))
	metCreated.Inc()
	m.wg.Add(1)
	m.mu.Unlock()

	go w.run(ctx, m.opts.Manual)
	return w, nil
}

// NoteShed records an admission-control rejection of a would-be watcher,
// so shed counts surface in stats alongside active/total.
func (m *Manager) NoteShed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

// Get returns a watcher by id.
func (m *Manager) Get(id string) (*Watcher, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.watchers[id]
	return w, ok
}

// Cancel stops a watcher, waits for its loop to exit, and removes it.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	w, ok := m.watchers[id]
	if ok {
		delete(m.watchers, id)
		metWatchers.Set(float64(len(m.watchers)))
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownWatcher, id)
	}
	w.stop()
	metCancelled.Inc()
	return nil
}

// List returns every live watcher's info, id order.
func (m *Manager) List() []Info {
	m.mu.Lock()
	ws := make([]*Watcher, 0, len(m.watchers))
	for _, w := range m.watchers {
		ws = append(ws, w)
	}
	m.mu.Unlock()
	infos := make([]Info, len(ws))
	for i, w := range ws {
		infos[i] = w.Info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Created.Before(infos[j].Created) })
	return infos
}

// TenantCount returns the number of live watchers carrying the tenant tag.
func (m *Manager) TenantCount(tenant string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.watchers {
		if w.tenant == tenant {
			n++
		}
	}
	return n
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Active: len(m.watchers), Total: m.total, Shed: m.shed}
}

// Close cancels every watcher and waits for all loops to exit. Subsequent
// Adds fail with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	ws := make([]*Watcher, 0, len(m.watchers))
	for id, w := range m.watchers {
		ws = append(ws, w)
		delete(m.watchers, id)
	}
	metWatchers.Set(0)
	m.mu.Unlock()
	for _, w := range ws {
		w.stop()
	}
	m.wg.Wait()
}

// Watcher is one standing query's registry entry: the compiled plan, the
// last evaluated generation and emitted ranking, and the subscriber fan-out.
type Watcher struct {
	id      string
	q       Query
	tenant  string
	mgr     *Manager
	created time.Time
	cancel  context.CancelFunc
	done    chan struct{}

	tickMu sync.Mutex // serializes ticks (timer loop vs manual Tick)

	mu        sync.Mutex
	subs      map[int]chan Update
	nextSub   int
	lastGen   uint64
	evaluated bool
	ranked    bool
	lastRows  []Row
	last      *Update
	seq       uint64
	lastEmit  time.Time
	invID     string
	ticks     uint64
	skips     uint64
	evals     uint64
	emits     uint64
	errs      uint64
	evalMs    *stats.RollingMoments
	stopped   bool
}

// ID returns the watcher id.
func (w *Watcher) ID() string { return w.id }

// Query returns the standing query.
func (w *Watcher) Query() Query { return w.q }

// Tenant returns the opaque tenant tag the watcher was created under.
func (w *Watcher) Tenant() string { return w.tenant }

// Done is closed when the watcher's loop has exited (cancelled or manager
// closed).
func (w *Watcher) Done() <-chan struct{} { return w.done }

// Info snapshots the watcher for listings.
func (w *Watcher) Info() Info {
	w.mu.Lock()
	defer w.mu.Unlock()
	info := Info{
		ID:            w.id,
		SQL:           w.q.SQL,
		Tenant:        w.tenant,
		Every:         w.q.Every.String(),
		OnAnomaly:     w.q.OnAnomaly,
		Created:       w.created,
		LastEmit:      w.lastEmit,
		Ticks:         w.ticks,
		Skips:         w.skips,
		Evals:         w.evals,
		Emits:         w.emits,
		Errors:        w.errs,
		Subscribers:   len(w.subs),
		Investigation: w.invID,
		EvalWindow:    w.evalMs.Count(),
	}
	if w.evalMs.Count() > 0 {
		info.AvgEvalMs = w.evalMs.Mean()
		info.EvalStdMs = w.evalMs.Std()
	}
	return info
}

// Subscribe attaches a latest-wins update channel. A watcher that has
// already emitted replays its last update immediately, so late joiners see
// the current ranking without waiting a cadence. The returned cancel is
// idempotent; after it returns the channel is closed.
func (w *Watcher) Subscribe() (<-chan Update, func()) {
	w.mu.Lock()
	ch := make(chan Update, w.mgr.opts.SubscriberBuffer)
	if w.stopped {
		// Already torn down: deliver the last update (if any) and close.
		if w.last != nil {
			ch <- *w.last
		}
		close(ch)
		w.mu.Unlock()
		return ch, func() {}
	}
	id := w.nextSub
	w.nextSub++
	w.subs[id] = ch
	if w.last != nil {
		ch <- *w.last
	}
	w.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			w.mu.Lock()
			if c, ok := w.subs[id]; ok {
				delete(w.subs, id)
				close(c)
			}
			w.mu.Unlock()
		})
	}
}

// run is the re-evaluation loop. The first tick happens immediately so a
// fresh watcher materializes its ranking without waiting a full cadence.
func (w *Watcher) run(ctx context.Context, manual bool) {
	defer w.mgr.wg.Done()
	defer w.teardown()
	if manual {
		<-ctx.Done()
		return
	}
	w.Tick(ctx)
	t := time.NewTicker(w.q.Every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.Tick(ctx)
		}
	}
}

// stop cancels the loop and waits for teardown.
func (w *Watcher) stop() {
	w.cancel()
	<-w.done
}

// teardown closes subscriber channels and the backing investigation.
func (w *Watcher) teardown() {
	w.mu.Lock()
	w.stopped = true
	subs := w.subs
	w.subs = make(map[int]chan Update)
	invID := w.invID
	w.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
	if invID != "" {
		w.mgr.backend.CloseInvestigation(invID)
	}
	close(w.done)
}

// Tick runs one re-evaluation round synchronously: generation gate →
// (optional) anomaly gate → evaluate → diff → emit. It is what the timer
// loop calls, exposed so tests and callers drive deterministic rounds.
func (w *Watcher) Tick(ctx context.Context) {
	w.tickMu.Lock()
	defer w.tickMu.Unlock()
	start := time.Now()
	ctx, end := obs.StartSpanName(ctx, "watch_tick ", w.id)
	defer end()
	defer metTickMs.ObserveSince(start)
	metTicks.Inc()

	// Read BEFORE evaluating: a rebuild that lands mid-evaluation moves the
	// generation past this one and re-triggers next tick — the race errs
	// toward re-evaluation, never toward a missed change.
	gen := w.mgr.backend.Generation()
	w.mu.Lock()
	w.ticks++
	unchanged := w.evaluated && w.lastGen == gen
	if unchanged {
		w.skips++
	}
	w.mu.Unlock()
	if unchanged {
		// Nothing a ranking depends on can have changed: no engine work.
		metSkips.Inc()
		return
	}

	q := w.q
	var hit *AnomalyHit
	if q.OnAnomaly {
		h, fired, err := w.mgr.backend.AnomalyScan(ctx, q)
		if err != nil {
			w.noteError(gen, err)
			return
		}
		if !fired {
			// Quiet target: the families moved but nothing is anomalous.
			// Mark the generation seen so the next quiet tick is free.
			metAnomalyQuiet.Inc()
			w.mu.Lock()
			w.lastGen = gen
			w.evaluated = true
			w.mu.Unlock()
			return
		}
		metAnomalyFired.Inc()
		hit = &h
		if q.From.IsZero() && q.To.IsZero() {
			// No explicit OVER: the fired window becomes the range to
			// explain, mirroring SuggestExplainRange.
			q.From, q.To = h.From, h.To
		}
	}

	evalStart := time.Now()
	rows, err := w.mgr.backend.Evaluate(ctx, q)
	evalMs := float64(time.Since(evalStart)) / float64(time.Millisecond)
	metEvals.Inc()
	metEvalMs.Observe(evalMs)
	if err != nil {
		if ctx.Err() != nil {
			return // cancelled mid-tick: not an evaluation failure
		}
		w.noteError(gen, err)
		return
	}

	w.mu.Lock()
	w.evals++
	w.evalMs.Push(evalMs)
	w.lastGen = gen
	w.evaluated = true
	reason, changed := diffRankings(w.lastRows, w.ranked, rows, w.mgr.opts.Epsilon)
	w.ranked = true
	if !changed {
		w.mu.Unlock()
		metNoChange.Inc()
		return
	}
	if hit != nil && w.invID == "" {
		// Auto-open the investigation session outside the emit path would
		// race cancellation; holding w.mu is fine — the backend call does
		// not re-enter the watcher.
		if id, ierr := w.mgr.backend.OpenInvestigation(w.q); ierr == nil {
			w.invID = id
		}
	}
	w.seq++
	upd := Update{
		WatcherID:     w.id,
		Seq:           w.seq,
		At:            time.Now(),
		Rows:          rows,
		Reason:        reason,
		Investigation: w.invID,
		Anomaly:       hit,
	}
	w.lastRows = rows
	w.last = &upd
	w.lastEmit = upd.At
	w.emits++
	subs := make([]chan Update, 0, len(w.subs))
	for _, ch := range w.subs {
		subs = append(subs, ch)
	}
	w.mu.Unlock()

	metEmits.Inc()
	for _, ch := range subs {
		sendLatestWins(ch, upd)
	}
}

// noteError emits an error update (once per generation: it is recorded so
// unchanged families do not re-fail every tick).
func (w *Watcher) noteError(gen uint64, err error) {
	metErrs.Inc()
	w.mu.Lock()
	w.errs++
	w.lastGen = gen
	w.evaluated = true
	w.seq++
	upd := Update{
		WatcherID: w.id,
		Seq:       w.seq,
		At:        time.Now(),
		Rows:      w.lastRows,
		Reason:    "error",
		Err:       err,
	}
	w.last = &upd
	subs := make([]chan Update, 0, len(w.subs))
	for _, ch := range w.subs {
		subs = append(subs, ch)
	}
	w.mu.Unlock()
	for _, ch := range subs {
		sendLatestWins(ch, upd)
	}
}

// sendLatestWins delivers without ever blocking the tick loop: when the
// subscriber's buffer is full, the oldest buffered update is dropped in
// favour of the new one (subscribers detect the gap via Seq).
func sendLatestWins(ch chan Update, u Update) {
	select {
	case ch <- u:
		return
	default:
	}
	select {
	case <-ch:
	default:
	}
	select {
	case ch <- u:
	default:
	}
}

// diffRankings classifies the change between the previously emitted rows
// and the fresh evaluation. The first evaluation always emits ("initial").
func diffRankings(prev []Row, emittedBefore bool, next []Row, epsilon float64) (string, bool) {
	if !emittedBefore {
		return "initial", true
	}
	if len(prev) != len(next) {
		return "membership", true
	}
	for i := range next {
		if prev[i].Family != next[i].Family {
			// Same set in a different order is "order"; a new family is
			// "membership".
			if sameFamilySet(prev, next) {
				return "order", true
			}
			return "membership", true
		}
	}
	for i := range next {
		if math.Abs(prev[i].Score-next[i].Score) > epsilon {
			return "score", true
		}
	}
	return "", false
}

func sameFamilySet(a, b []Row) bool {
	set := make(map[string]int, len(a))
	for _, r := range a {
		set[r.Family]++
	}
	for _, r := range b {
		set[r.Family]--
		if set[r.Family] < 0 {
			return false
		}
	}
	return true
}
