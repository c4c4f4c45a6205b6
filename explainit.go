// Package explainit is a declarative root-cause analysis engine for time
// series data, reproducing the system described in "ExplainIt! — A
// declarative root-cause analysis engine for time series data" (SIGMOD
// 2019).
//
// The workflow mirrors the paper's three steps:
//
//  1. Load telemetry into the built-in time series store (Put, LoadCSV,
//     LoadJSONL) and group metrics into feature families (BuildFamilies for
//     name/tag groupings, DefineFamiliesSQL for arbitrary SQL groupings).
//     New keeps the store in memory; Open(dir) backs it with a durable
//     WAL + compressed-chunk storage engine that survives restarts.
//  2. Pick the target family and, optionally, families to condition on —
//     or derive a pseudocause from the target's own seasonality.
//  3. Explain: every candidate family is scored for conditional dependence
//     with the target and the top-K results are returned, ranked.
//
// A quick example:
//
//	c := explainit.New()
//	// ... c.Put(...) telemetry ...
//	c.BuildFamilies("name", from, to, time.Minute)
//	ranking, err := c.Explain(explainit.ExplainOptions{Target: "pipeline_runtime"})
package explainit

import (
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"explainit/internal/connector"
	"explainit/internal/core"
	"explainit/internal/monitor"
	"explainit/internal/obs"
	"explainit/internal/rescache"
	"explainit/internal/sqlexec"
	"explainit/internal/sqlparse"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// Tags annotates a metric with key/value pairs.
type Tags map[string]string

// Client is the top-level handle: a time series store, a SQL catalog over
// it, and the hypothesis-ranking engine. A Client is safe for concurrent
// use: the family registry is one immutable value that a rebuild replaces,
// so HTTP handlers can rebuild families while rankings resolve candidates.
type Client struct {
	db *tsdb.DB
	// reg is the current family registry; regMu serializes the writers
	// that replace it (registerFamilies). Readers load it and take no lock.
	reg   atomic.Pointer[registry]
	regMu sync.Mutex
	// now is the request clock that the request latency metric reads
	// (time.Now; tests script it).
	now    func() time.Time
	rcache atomic.Pointer[rescache.Cache]
	// SQL-layer caches (sqlcache.go): compiled physical plans keyed by
	// statement text, and pushed-down scan relations validated against the
	// store's ingest watermarks.
	sqlPlans atomic.Pointer[rescache.Cache]
	sqlScans atomic.Pointer[rescache.Cache]

	// Standing-query subsystem (watch.go). The manager is built lazily on
	// the first watch; watchMu guards the lazy init, the pinned options,
	// and the registry of investigations auto-opened by ON ANOMALY
	// watchers.
	watchMu      sync.Mutex
	mon          *monitor.Manager
	watchOpts    WatchOptions
	watchInvs    map[string]*Investigation
	nextWatchInv int
}

func newClient(db *tsdb.DB) *Client {
	c := &Client{db: db, now: time.Now}
	c.reg.Store(&registry{byName: map[string]*core.Family{}})
	c.rcache.Store(rescache.New(defaultRankingCacheCap))
	c.sqlPlans.Store(rescache.New(defaultSQLPlanCacheCap))
	c.sqlScans.Store(rescache.New(defaultSQLScanCacheCap))
	return c
}

// New creates an empty client with a purely in-memory store: a restart
// loses all telemetry. Use Open for a durable store.
func New() *Client {
	return newClient(tsdb.New())
}

// Open creates a client whose time series store is durably persisted
// under dir by the storage engine (hash-sharded per-shard write-ahead
// logs + compressed columnar chunks): all previously committed telemetry
// is recovered on Open, every Put/LoadCSV/LoadJSONL is logged before it
// becomes queryable, and query results are identical to an in-memory
// client fed the same data. Call Close when done.
func Open(dir string) (*Client, error) {
	return OpenShards(dir, 0)
}

// OpenShards is Open with an explicit shard count for a new store
// directory (0 selects the default). Ingest and query fan out across
// shards — each with its own lock, indexes and WAL — while query results
// stay bitwise identical at any count. An existing directory's count is
// pinned at creation and wins over the argument.
func OpenShards(dir string, shards int) (*Client, error) {
	db, err := tsdb.OpenWithOptions(dir, tsdb.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	return newClient(db), nil
}

// Flush forces WAL data into compressed chunks (no-op for an in-memory
// client).
func (c *Client) Flush() error { return c.db.Flush() }

// Close tears down the standing-query subsystem (watchers stop, their
// subscriber channels close), then flushes and releases the durable store,
// surfacing any write error the storage engine recorded.
func (c *Client) Close() error {
	c.CloseWatches()
	return c.db.Close()
}

// Put records one observation.
func (c *Client) Put(metric string, tags Tags, at time.Time, value float64) {
	c.db.Put(metric, ts.Tags(tags), at, value)
}

// Observation is one record for PutBatch.
type Observation struct {
	Metric string
	Tags   Tags
	At     time.Time
	Value  float64
}

// PutBatch records many observations at once: on a durable store the whole
// batch shares one WAL group commit instead of one fsync per sample.
func (c *Client) PutBatch(obs []Observation) error {
	batch := make([]tsdb.Record, len(obs))
	for i, o := range obs {
		batch[i] = tsdb.Record{Metric: o.Metric, Tags: o.Tags, TS: o.At, Value: o.Value}
	}
	return c.db.PutBatch(batch)
}

// LoadCSV ingests "timestamp,metric,tags,value" records (tags as
// semicolon-separated k=v pairs). It returns the number of rows loaded.
func (c *Client) LoadCSV(r io.Reader) (int, error) { return connector.LoadCSV(c.db, r) }

// LoadJSONL ingests newline-delimited JSON records of the form
// {"ts":..., "metric":..., "tags":{...}, "value":...}.
func (c *Client) LoadJSONL(r io.Reader) (int, error) { return connector.LoadJSONL(c.db, r) }

// MetricNames lists the distinct metric names in the store.
func (c *Client) MetricNames() []string { return c.db.MetricNames() }

// NumSeries returns the number of distinct (metric, tags) series.
func (c *Client) NumSeries() int { return c.db.NumSeries() }

// NumSamples returns the total number of stored samples.
func (c *Client) NumSamples() int { return c.db.NumSamples() }

// NumShards returns the underlying store's shard count.
func (c *Client) NumShards() int { return c.db.NumShards() }

// Bounds returns the time range covered by the stored data.
func (c *Client) Bounds() (from, to time.Time, ok bool) {
	min, max, ok := c.db.Bounds()
	return min, max.Add(time.Nanosecond), ok
}

// FamilyInfo summarises one materialised feature family.
type FamilyInfo struct {
	Name     string
	Features int
	Rows     int
}

// BuildFamilies materialises feature families from the store over [from,
// to) at the given step. groupBy is either "name" (group by metric name,
// the paper's default) or "tag:<key>" (group by one tag's value, §3.2).
// Newly built families replace any previously defined set.
func (c *Client) BuildFamilies(groupBy string, from, to time.Time, step time.Duration) ([]FamilyInfo, error) {
	var gf core.GroupFunc
	switch {
	case groupBy == "name" || groupBy == "":
		gf = core.GroupByMetricName
	case strings.HasPrefix(groupBy, "tag:"):
		gf = core.GroupByTag(strings.TrimPrefix(groupBy, "tag:"))
	default:
		return nil, fmt.Errorf("%w %q (use \"name\" or \"tag:<key>\")", ErrUnknownGrouping, groupBy)
	}
	start := time.Now()
	fams, series, err := core.BuildFamiliesFromStore(c.db, gf, ts.TimeRange{From: from, To: to}, step)
	if err != nil {
		return nil, err
	}
	infos := c.registerFamilies(fams, true)
	metBuildFamiliesMs.ObserveSince(start)
	metBuildSeries.Add(uint64(series))
	metBuildFamilies.Add(uint64(len(fams)))
	return infos, nil
}

// DefineFamiliesSQL adds families produced by a SQL query over the store.
// The query runs against a table named "tsdb" with columns (timestamp,
// metric_name, tag, value); its result must contain timeCol plus keyCol
// (the family name column — pass "" to put all rows in one family) and one
// or more numeric feature columns. Families accumulate next to previously
// built ones (replacing same-named families), so several queries can stage
// a search space, as in Appendix C.
func (c *Client) DefineFamiliesSQL(query, timeCol, keyCol string, from, to time.Time, step time.Duration) ([]FamilyInfo, error) {
	cat := sqlexec.NewMemCatalog()
	if err := cat.RegisterTSDB("tsdb", c.db); err != nil {
		return nil, err
	}
	// Parse as a SELECT: EXPLAIN statements produce no family table.
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	rel, err := sqlexec.ExecuteStatement(context.Background(), stmt, cat, nil)
	if err != nil {
		return nil, err
	}
	fams, err := core.FamiliesFromRelation(rel, timeCol, keyCol, ts.TimeRange{From: from, To: to}, step)
	if err != nil {
		return nil, err
	}
	return c.registerFamilies(fams, false), nil
}

// registry is one build of the family registry: generation gen, the
// families by name, their definition order, and the families in name order
// (the candidate set of every ranking without a search space). It is never
// mutated once stored, so a reader that loaded it sees one whole build and
// rankings share its slices without copying. Its generation is the one key
// that validates everything derived from families: cached rankings,
// session steps and watch ticks.
type registry struct {
	gen    uint64
	byName map[string]*core.Family
	order  []string
	sorted []*core.Family
}

// family looks a family up by name, wrapping the failure in
// ErrUnknownFamily with the caller's role annotation.
func (r *registry) family(name, role string) (*core.Family, error) {
	f, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s %q (call BuildFamilies first)", ErrUnknownFamily, role, name)
	}
	return f, nil
}

// registerFamilies publishes the next registry: fams replace same-named
// families, or with replace the whole registry. It stores one new value
// with the next generation, so a concurrent reader sees the old registry
// or the new one, never a cleared one in between.
func (c *Client) registerFamilies(fams []*core.Family, replace bool) []FamilyInfo {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	old := c.reg.Load()
	next := &registry{gen: old.gen + 1, byName: make(map[string]*core.Family, len(fams))}
	if !replace {
		maps.Copy(next.byName, old.byName)
		next.order = slices.Clone(old.order)
	}
	infos := make([]FamilyInfo, 0, len(fams))
	for _, f := range fams {
		if _, exists := next.byName[f.Name]; !exists {
			next.order = append(next.order, f.Name)
		}
		next.byName[f.Name] = f
		infos = append(infos, familyInfo(f))
	}
	next.sorted = slices.SortedFunc(maps.Values(next.byName), func(a, b *core.Family) int {
		return strings.Compare(a.Name, b.Name)
	})
	c.reg.Store(next)
	return infos
}

func familyInfo(f *core.Family) FamilyInfo {
	return FamilyInfo{Name: f.Name, Features: f.NumFeatures(), Rows: f.NumRows()}
}

// Families lists the currently defined families, in definition order.
func (c *Client) Families() []FamilyInfo {
	reg := c.reg.Load()
	out := make([]FamilyInfo, len(reg.order))
	for i, name := range reg.order {
		out[i] = familyInfo(reg.byName[name])
	}
	return out
}

// Result is a SQL query result.
type Result struct {
	Columns []string
	Rows    [][]interface{}
}

// ScorerName selects a hypothesis scorer (§3.5 / Table 6).
type ScorerName string

// Available scorers.
const (
	CorrMean ScorerName = "corrmean" // mean absolute pairwise correlation
	CorrMax  ScorerName = "corrmax"  // max absolute pairwise correlation
	L2       ScorerName = "l2"       // cross-validated ridge regression
	L2P50    ScorerName = "l2-p50"   // ridge after random projection to 50 dims
	L2P500   ScorerName = "l2-p500"  // ridge after random projection to 500 dims
	L1       ScorerName = "l1"       // cross-validated lasso (ablation)
)

func scorerFor(name ScorerName, seed int64) (core.Scorer, error) {
	switch name {
	case CorrMean:
		return &core.CorrScorer{}, nil
	case CorrMax:
		return &core.CorrScorer{UseMax: true}, nil
	case L2, "":
		return &core.L2Scorer{Seed: seed}, nil
	case L2P50:
		return &core.L2Scorer{ProjectDim: 50, Seed: seed}, nil
	case L2P500:
		return &core.L2Scorer{ProjectDim: 500, Seed: seed}, nil
	case L1:
		return &core.LassoScorer{}, nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownScorer, name)
}

// ExplainOptions configures one ranking query (one iteration of
// Algorithm 1).
type ExplainOptions struct {
	// Target names the family to explain (required).
	Target string
	// Condition lists families to condition on (may be empty).
	Condition []string
	// Pseudocause, when true, additionally conditions on the seasonal +
	// trend component of the target itself (§3.4). PseudocausePeriod
	// fixes the seasonal period in samples; 0 auto-detects.
	Pseudocause       bool
	PseudocausePeriod int
	// SearchSpace restricts the candidate families; empty means all
	// defined families.
	SearchSpace []string
	// Scorer selects the scoring algorithm; default L2.
	Scorer ScorerName
	// TopK bounds the result table (default 20).
	TopK int
	// Workers bounds scoring parallelism (default GOMAXPROCS).
	Workers int
	// Seed makes projection-based scorers reproducible.
	Seed int64
	// ExplainFrom/ExplainTo optionally highlight the event to explain
	// (Figure 2); zero values use the whole range.
	ExplainFrom, ExplainTo time.Time
}

// RankedFamily is one row of a ranking.
type RankedFamily struct {
	Rank     int
	Family   string
	Features int
	Score    float64
	PValue   float64
	Viz      string
	Elapsed  time.Duration
}

// Ranking is the outcome of Explain: candidate causes in decreasing order
// of causal relevance to the target.
type Ranking struct {
	Rows    []RankedFamily
	Skipped []string
}

// String renders the ranking as the operator-facing score table.
func (r *Ranking) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-38s %8s %9s %10s  %s\n", "rank", "family", "feats", "score", "p-value", "viz")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4d %-38s %8d %9.3f %10.2e  %s\n",
			row.Rank, truncate(row.Family, 38), row.Features, row.Score, row.PValue, row.Viz)
	}
	return b.String()
}

// truncate cuts s to at most n display runes, replacing the tail with an
// ellipsis. Cutting on rune boundaries keeps multi-byte family names valid
// UTF-8 in the score table.
func truncate(s string, n int) string {
	runes := []rune(s)
	if len(runes) <= n {
		return s
	}
	return string(runes[:n-1]) + "…"
}

// rankedFromResult converts one engine result into a facade row (Rank not
// yet assigned).
func rankedFromResult(res core.Result) RankedFamily {
	return RankedFamily{
		Family:   res.Family,
		Features: res.Features,
		Score:    res.Score,
		PValue:   res.PValue,
		Viz:      res.Viz,
		Elapsed:  res.Elapsed,
	}
}

// rankingFromTable assembles the user-facing ranking, skipping errored rows
// and assigning ranks densely over the rows actually emitted.
func rankingFromTable(table *core.ScoreTable) *Ranking {
	ranking := &Ranking{Skipped: table.Skipped}
	for _, res := range table.Results {
		if res.Err != nil {
			continue
		}
		row := rankedFromResult(res)
		row.Rank = len(ranking.Rows) + 1
		ranking.Rows = append(ranking.Rows, row)
	}
	return ranking
}

// Explain ranks candidate families by how well they explain the target,
// optionally conditioning on other families or a pseudocause. It is
// ExplainContext with a background context.
func (c *Client) Explain(opts ExplainOptions) (*Ranking, error) {
	return c.ExplainContext(context.Background(), opts)
}

// ExplainContext is Explain with cooperative cancellation: the engine
// checks ctx before every candidate and at every CV fold, so a cancelled
// ranking returns ctx.Err() promptly with all of its workers reaped.
//
// Completed rankings are memoized: repeating a call with the same options
// before the next family rebuild returns the identical Ranking without
// touching the engine. See cache.go for the keying and invalidation rules.
func (c *Client) ExplainContext(ctx context.Context, opts ExplainOptions) (*Ranking, error) {
	defer c.noteRequest(metExplainReqs, c.now())
	r, _, err := c.rank(ctx, rankSpec{ExplainOptions: opts}, nil, nil)
	return r, err
}

// RankUpdate is one event on a streaming ranking channel. Progress events
// carry Row — one newly scored candidate, in completion order, Rank not yet
// assigned — plus the Scored/Total counters (Total counts all candidates
// submitted, including ones later skipped, so Scored can finish below it).
// The terminal event carries either Final (the completed ranking, identical
// to what the blocking call returns) or Err (including ctx.Err() on
// cancellation); the channel is closed after it.
type RankUpdate struct {
	Row           *RankedFamily
	Scored, Total int
	Final         *Ranking
	Err           error
}

// ExplainStream is ExplainContext with progressive delivery: it returns
// immediately with a channel of RankUpdate events that emits each scored
// candidate as workers finish, then a terminal event with the completed
// ranking (or error). The channel is buffered for the whole ranking, so an
// abandoned stream never blocks or leaks the scoring goroutines —
// cancelling ctx is still the way to stop the work early. A completed
// stream's Final ranking is identical to the blocking ExplainContext
// result at any worker count.
func (c *Client) ExplainStream(ctx context.Context, opts ExplainOptions) (<-chan RankUpdate, error) {
	start := c.now()
	return c.rankStream(ctx, rankSpec{ExplainOptions: opts}, nil, func(*Ranking, *core.CondState, error) {
		c.noteRequest(metExplainStreamReqs, start)
	})
}

// rankSpec declares one ranking — one iteration of Algorithm 1 — the way
// every entry point states it: Explain's options, a compiled SQL EXPLAIN or
// watch tick (planSpec), or an Investigation step (beginStep).
type rankSpec struct {
	ExplainOptions
	// sql gives the ranking SQL's semantics: without a LIMIT it is the
	// full ranking, so the engine ranks at TopK = the registry size (every
	// candidate set is a subset of it), and limit ≥ 0 trims the rows
	// returned. The cached and streamed ranking is the untrimmed one.
	sql   bool
	limit int
	// pin, when set, carries a session's pinned families; only the
	// candidates then resolve from the live registry.
	pin *sessionPin
}

// sessionPin is what an Investigation pinned: its target at registry
// generation gen, and its conditioning families in engine order — the
// pseudocause first, where Explain derives it per request and appends it.
type sessionPin struct {
	gen       uint64
	target    *core.Family
	condition []*core.Family
}

// rankInputs is what one ranking reads from the family registry.
type rankInputs struct {
	gen        uint64
	target     *core.Family
	condition  []*core.Family
	candidates []*core.Family
	topK       int
}

// resolve reads everything spec ranks over from one registry: a
// concurrent BuildFamilies lands wholly before or wholly after it, so one
// ranking never mixes two builds.
func (c *Client) resolve(spec *rankSpec) (rankInputs, error) {
	reg := c.reg.Load()
	in := rankInputs{gen: reg.gen, topK: spec.TopK, candidates: reg.sorted}
	if spec.sql {
		in.topK = len(reg.byName)
	}
	if spec.pin != nil {
		in.target, in.condition = spec.pin.target, spec.pin.condition
	} else {
		var err error
		if in.target, err = reg.family(spec.Target, "target family"); err != nil {
			return in, err
		}
		for _, name := range spec.Condition {
			f, err := reg.family(name, "conditioning family")
			if err != nil {
				return in, err
			}
			in.condition = append(in.condition, f)
		}
	}
	if len(spec.SearchSpace) > 0 {
		in.candidates = make([]*core.Family, 0, len(spec.SearchSpace))
		for _, name := range spec.SearchSpace {
			f, err := reg.family(name, "search-space family")
			if err != nil {
				return in, err
			}
			in.candidates = append(in.candidates, f)
		}
	}
	return in, nil
}

// rank is the one ranking path: Explain, ExplainStream, Investigation
// steps, SQL EXPLAIN and watch ticks all run it. In order, it
//
//  1. resolves target, conditioning and candidates from one registry
//     snapshot (plan span);
//  2. builds the computation's one cache key;
//  3. probes the ranking cache, validated by the registry generation
//     (cache_probe span);
//  4. prepares the conditioning design through PrepareConditioning,
//     extending donor — a session's best factored prefix — when there is
//     one (gram_cholesky span, which also covers deriving an Explain's
//     pseudocause);
//  5. ranks the candidates with RankPrepared (rank span);
//  6. stores the result.
//
// onRow, when non-nil, first receives one event that carries only Total,
// the candidate count, once step 1 has succeeded; then one event per scored
// candidate, or on a cache hit one per cached row in rank order. The
// returned state is the conditioning design the ranking used (nil on a hit
// or without one), returned even when the ranking fails so a session can
// keep it. rank records no request metric: that is the entry point's job.
func (c *Client) rank(ctx context.Context, spec rankSpec, donor *core.CondState, onRow func(RankUpdate)) (*Ranking, *core.CondState, error) {
	_, endPlan := obs.StartSpan(ctx, "plan")
	in, err := c.resolve(&spec)
	var scorer core.Scorer
	if err == nil {
		scorer, err = scorerFor(spec.Scorer, spec.Seed)
	}
	endPlan()
	if err != nil {
		return nil, nil, err
	}
	if onRow != nil {
		onRow(RankUpdate{Total: len(in.candidates)})
	}

	cache := c.rankingCache()
	var key string
	var valid []uint64
	// A session whose target predates the current registry build ranks
	// uncached: its pinned families are not the ones the generation names.
	if cache.Enabled() && (spec.pin == nil || spec.pin.gen == in.gen) {
		// Between rebuilds a ranking reads nothing but the registry it
		// resolved, so that registry's generation alone validates the entry.
		_, endProbe := obs.StartSpan(ctx, "cache_probe")
		key, valid = spec.key(in.topK), []uint64{in.gen}
		v, hit, stale := cache.Get(key, valid)
		endProbe()
		if stale {
			metRankInvalidated.Inc()
		}
		if hit {
			metRankHits.Inc()
			r := v.(*Ranking).clone()
			if onRow != nil {
				for i := range r.Rows {
					row := r.Rows[i]
					onRow(RankUpdate{Row: &row, Scored: i + 1, Total: len(r.Rows)})
				}
			}
			return spec.trim(r), nil, nil
		}
	}
	metRankMisses.Inc()

	eng := &core.Engine{Scorer: scorer, Workers: spec.Workers, TopK: in.topK}
	condition := in.condition
	adhocPseudo := spec.Pseudocause && spec.pin == nil
	var state *core.CondState
	if len(condition) > 0 || adhocPseudo {
		_, endPrep := obs.StartSpan(ctx, "gram_cholesky")
		if adhocPseudo {
			var pc *core.Family
			if pc, err = core.Pseudocause(in.target, spec.PseudocausePeriod); err == nil {
				condition = append(condition[:len(condition):len(condition)], pc)
			}
		}
		if err == nil {
			state, err = eng.PrepareConditioning(in.target, condition, donor)
		}
		endPrep()
		if err != nil {
			return nil, nil, err
		}
	}

	req := core.Request{Target: in.target, Condition: condition, Candidates: in.candidates}
	if !spec.ExplainFrom.IsZero() || !spec.ExplainTo.IsZero() {
		req.ExplainRange = ts.TimeRange{From: spec.ExplainFrom, To: spec.ExplainTo}
	}
	var onResult func(core.Result)
	if onRow != nil {
		scored, total := 0, len(in.candidates)
		onResult = func(res core.Result) {
			scored++
			u := RankUpdate{Scored: scored, Total: total}
			if res.Err == nil {
				row := rankedFromResult(res)
				u.Row = &row
			}
			onRow(u)
		}
	}
	rankCtx, endRank := obs.StartSpan(ctx, "rank")
	table, err := eng.RankPrepared(rankCtx, req, state, onResult)
	endRank()
	if err != nil {
		return nil, state, err
	}
	ranking := rankingFromTable(table)
	if key != "" {
		cache.Put(key, valid, ranking.clone())
	}
	return spec.trim(ranking), state, nil
}

// trim applies a SQL spec's LIMIT to a ranking the caller owns.
func (s *rankSpec) trim(r *Ranking) *Ranking {
	if s.sql && s.limit >= 0 && len(r.Rows) > s.limit {
		r.Rows = r.Rows[:s.limit]
	}
	return r
}

// rankStream runs rank on one goroutine and delivers it as RankUpdate
// events: each scored (or replayed) candidate, then the terminal event with
// the ranking or the error. rank's first event hands back the candidate
// count before anything is scored, so resolution errors still return
// synchronously and the channel is buffered for the whole ranking: an
// abandoned stream never blocks the goroutine. done runs exactly once,
// when the request completes — on the caller's goroutine if
// resolution fails, otherwise on the stream's goroutine before the terminal
// event, so a consumer that sees that event also sees done's effects.
func (c *Client) rankStream(ctx context.Context, spec rankSpec, donor *core.CondState, done func(*Ranking, *core.CondState, error)) (<-chan RankUpdate, error) {
	resolved := make(chan error, 1)
	var ch chan RankUpdate
	go func() {
		var last RankUpdate
		r, state, err := c.rank(ctx, spec, donor, func(u RankUpdate) {
			if ch == nil {
				ch = make(chan RankUpdate, u.Total+1)
				resolved <- nil
			} else {
				ch <- u
			}
			last = u
		})
		if ch == nil {
			resolved <- err
			return
		}
		done(r, state, err)
		ch <- RankUpdate{Final: r, Err: err, Scored: last.Scored, Total: last.Total}
		close(ch)
	}()
	if err := <-resolved; err != nil {
		done(nil, nil, err)
		return nil, err
	}
	return ch, nil
}
