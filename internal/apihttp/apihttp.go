// Package apihttp is the versioned HTTP surface of the analysis engine:
// /api/v1 exposes the facade's iterative Investigation sessions over the
// wire — create a session, condition it, run steps as asynchronous jobs,
// poll them, or follow a live SSE stream of ranked rows as scoring workers
// finish — and the declarative query layer at /api/v1/query (SELECT over
// the tsdb table, or EXPLAIN ... GIVEN ... compiled into the ranking
// engine, blocking or as an async job). Every error is a typed JSON envelope
// ({"error":{"code","message"}}) whose codes mirror the exported
// explainit.Err* sentinels, so an HTTP client and an in-process caller
// branch on exactly the same values.
package apihttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"explainit"
	"explainit/internal/obs"
)

// Server routes /api/v1. Create with NewServer (or NewServerWithLimits for
// explicit admission limits), mount anywhere (it serves only its own
// prefix), and Close it on shutdown to reap running jobs and the session
// janitor.
type Server struct {
	client *explainit.Client
	mux    *http.ServeMux
	limits Limits
	gate   *gate
	slow   *obs.SlowLog

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	invs    map[string]*session
	jobs    map[string]*job
	nextInv int
	nextJob int
}

// NewServer builds the /api/v1 handler over a facade client with default
// admission limits.
func NewServer(c *explainit.Client) *Server {
	return NewServerWithLimits(c, Limits{})
}

// NewServerWithLimits is NewServer with explicit admission-control and
// session-quota limits (zero fields select the defaults; see Limits).
func NewServerWithLimits(c *explainit.Client, lim Limits) *Server {
	lim = lim.withDefaults()
	s := &Server{
		client: c,
		mux:    http.NewServeMux(),
		limits: lim,
		gate:   newGate(lim),
		invs:   make(map[string]*session),
		jobs:   make(map[string]*job),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// Paths are registered method-less: method checks happen in the
	// handlers so a wrong verb gets the typed envelope, not the stdlib
	// text/plain 405. Every route is instrumented under its mux pattern —
	// bounded label cardinality — except /metrics itself, which would
	// otherwise measure its own scrape.
	reg := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, instrument(pattern, h))
	}
	reg("/api/v1/put", s.handlePut)
	reg("/api/v1/families", s.handleFamilies)
	reg("/api/v1/explain", s.handleExplain)
	reg("/api/v1/query", s.handleQuery)
	reg("/api/v1/investigations", s.handleInvestigations)
	reg("/api/v1/investigations/{id}", s.handleInvestigation)
	reg("/api/v1/investigations/{id}/condition", s.handleCondition)
	reg("/api/v1/investigations/{id}/step", s.handleStep)
	reg("/api/v1/jobs/{id}", s.handleJob)
	reg("/api/v1/jobs/{id}/events", s.handleJobEvents)
	reg("/api/v1/watch", s.handleWatches)
	reg("/api/v1/watch/{id}", s.handleWatch)
	reg("/api/v1/watch/{id}/events", s.handleWatchEvents)
	reg("/api/v1/stats", s.handleStats)
	reg("/api/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/api/v1/", s.handleUnknown)
	if lim.SessionTTL > 0 {
		go s.janitor(lim.SessionTTL)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every running job's context; their scoring workers unwind
// promptly.
func (s *Server) Close() error {
	s.baseCancel()
	return nil
}

// SetSlowLog installs a slow-query log (see obs.NewSlowLog). Requests
// slower than its threshold are recorded with a span breakdown; a nil log
// disables recording. Set before serving traffic — the field is not
// mutex-guarded.
func (s *Server) SetSlowLog(l *obs.SlowLog) { s.slow = l }

// traceFor decides whether a request runs under a stage tracer: the client
// asked for one (?trace=1) or the slow-query log needs span breakdowns for
// over-threshold requests. It returns the (possibly derived) context, the
// trace (nil when untraced), and whether the span tree belongs in the
// response envelope.
func (s *Server) traceFor(r *http.Request) (context.Context, *obs.Trace, bool) {
	want := r.URL.Query().Get("trace") == "1"
	if !want && !s.slow.Enabled() {
		return r.Context(), nil, false
	}
	ctx, t := obs.WithTrace(r.Context())
	return ctx, t, want
}

// --- error envelope ---

type errorEnvelope struct {
	Error explainit.Error `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Error: explainit.Error{Code: code, Message: msg}})
}

// writeError maps an error to the envelope: sentinel-wrapped errors carry
// their wire code and a matching status; anything else is a bad_request.
func writeError(w http.ResponseWriter, err error) {
	code := explainit.ErrorCode(err)
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, explainit.ErrUnknownFamily),
		errors.Is(err, explainit.ErrUnknownInvestigation),
		errors.Is(err, explainit.ErrUnknownJob),
		errors.Is(err, explainit.ErrUnknownWatch):
		status = http.StatusNotFound
	case errors.Is(err, explainit.ErrStepInProgress),
		errors.Is(err, explainit.ErrInvestigationClosed):
		status = http.StatusConflict
	case errors.Is(err, explainit.ErrOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// 499 is nginx's "client closed request"; stdlib has no constant.
		status, code = 499, "cancelled"
	}
	if code == "" {
		code = "bad_request"
	}
	writeErrorCode(w, status, code, err.Error())
}

func methodNotAllowed(w http.ResponseWriter, allowed string) {
	w.Header().Set("Allow", allowed)
	writeErrorCode(w, http.StatusMethodNotAllowed, "method_not_allowed", allowed+" required")
}

func (s *Server) handleUnknown(w http.ResponseWriter, r *http.Request) {
	writeErrorCode(w, http.StatusNotFound, "not_found", "unknown /api/v1 path "+r.URL.Path)
}

// decodeJSON reads a bounded JSON body into v, rejecting trailing garbage.
func decodeJSON(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed JSON body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("malformed JSON body: trailing data after JSON value")
	}
	return nil
}

// --- ingest + families ---

// PutRecord is the JSON wire form of one observation.
type PutRecord struct {
	Metric    string            `json:"metric"`
	Timestamp int64             `json:"timestamp"` // unix seconds
	Value     float64           `json:"value"`
	Tags      map[string]string `json:"tags,omitempty"`
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var records []PutRecord
	if err := decodeJSON(r, &records); err != nil {
		writeError(w, err)
		return
	}
	batch := make([]explainit.Observation, 0, len(records))
	for i, rec := range records {
		if rec.Metric == "" {
			writeErrorCode(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("record %d: empty metric", i))
			return
		}
		batch = append(batch, explainit.Observation{
			Metric: rec.Metric,
			Tags:   rec.Tags,
			At:     time.Unix(rec.Timestamp, 0).UTC(),
			Value:  rec.Value,
		})
	}
	if err := s.client.PutBatch(batch); err != nil {
		writeErrorCode(w, http.StatusInternalServerError, "storage", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"stored": len(batch)})
}

type buildFamiliesRequest struct {
	GroupBy     string `json:"group_by"`
	From        int64  `json:"from"`         // unix seconds; 0 = store bounds
	To          int64  `json:"to"`           // unix seconds; 0 = store bounds
	StepSeconds int64  `json:"step_seconds"` // 0 = 60
}

type familyPayload struct {
	Name     string `json:"name"`
	Features int    `json:"features"`
	Rows     int    `json:"rows"`
}

func (s *Server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		infos := s.client.Families()
		out := make([]familyPayload, len(infos))
		for i, f := range infos {
			out[i] = familyPayload{Name: f.Name, Features: f.Features, Rows: f.Rows}
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req buildFamiliesRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, err)
			return
		}
		from := time.Unix(req.From, 0).UTC()
		to := time.Unix(req.To, 0).UTC()
		if req.From == 0 || req.To == 0 {
			lo, hi, ok := s.client.Bounds()
			if !ok {
				writeErrorCode(w, http.StatusBadRequest, "bad_request", "store is empty; put data first or pass from/to")
				return
			}
			if req.From == 0 {
				from = lo
			}
			if req.To == 0 {
				to = hi
			}
		}
		step := time.Duration(req.StepSeconds) * time.Second
		if step <= 0 {
			step = time.Minute
		}
		infos, err := s.client.BuildFamilies(req.GroupBy, from, to, step)
		if err != nil {
			writeError(w, err)
			return
		}
		out := make([]familyPayload, len(infos))
		for i, f := range infos {
			out[i] = familyPayload{Name: f.Name, Features: f.Features, Rows: f.Rows}
		}
		writeJSON(w, http.StatusOK, out)
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

// --- blocking explain ---

type explainRequest struct {
	Target      string   `json:"target"`
	Condition   []string `json:"condition,omitempty"`
	SearchSpace []string `json:"search_space,omitempty"`
	Scorer      string   `json:"scorer,omitempty"`
	TopK        int      `json:"top_k,omitempty"`
	Workers     int      `json:"workers,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Pseudocause bool     `json:"pseudocause,omitempty"`
}

type rowPayload struct {
	Rank     int     `json:"rank,omitempty"`
	Family   string  `json:"family"`
	Features int     `json:"features"`
	Score    float64 `json:"score"`
	PValue   float64 `json:"p_value"`
	Viz      string  `json:"viz,omitempty"`
}

type rankingPayload struct {
	Rows    []rowPayload    `json:"rows"`
	Skipped []string        `json:"skipped,omitempty"`
	Trace   []*obs.SpanNode `json:"trace,omitempty"` // present when ?trace=1
}

func rowFromRanked(row explainit.RankedFamily) rowPayload {
	return rowPayload{
		Rank:     row.Rank,
		Family:   row.Family,
		Features: row.Features,
		Score:    row.Score,
		PValue:   row.PValue,
		Viz:      row.Viz,
	}
}

func payloadFromRanking(ranking *explainit.Ranking) rankingPayload {
	out := rankingPayload{Rows: make([]rowPayload, len(ranking.Rows)), Skipped: ranking.Skipped}
	for i, row := range ranking.Rows {
		out.Rows[i] = rowFromRanked(row)
	}
	return out
}

// handleExplain is the one-shot form: it blocks for the ranking, with the
// request context cancelling the engine when the client goes away.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req explainRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	ctx, tr, wantTrace := s.traceFor(r)
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ranking, err := s.client.ExplainContext(ctx, explainit.ExplainOptions{
		Target:      req.Target,
		Condition:   req.Condition,
		SearchSpace: req.SearchSpace,
		Scorer:      explainit.ScorerName(req.Scorer),
		TopK:        req.TopK,
		Workers:     req.Workers,
		Seed:        req.Seed,
		Pseudocause: req.Pseudocause,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	payload := payloadFromRanking(ranking)
	if wantTrace {
		payload.Trace = tr.Tree()
	}
	// Elapsed includes any queue wait: a request that was slow because the
	// gate was saturated is exactly what the slow log should surface.
	s.slow.Record("explain", req.Target, time.Since(start), start, tr)
	writeJSON(w, http.StatusOK, payload)
}

// --- investigations ---

type createInvestigationRequest struct {
	Target      string   `json:"target"`
	Condition   []string `json:"condition,omitempty"`
	SearchSpace []string `json:"search_space,omitempty"`
	Scorer      string   `json:"scorer,omitempty"`
	TopK        int      `json:"top_k,omitempty"`
	Workers     int      `json:"workers,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Pseudocause bool     `json:"pseudocause,omitempty"`
}

type stepPayload struct {
	Step               int      `json:"step"`
	Condition          []string `json:"condition"`
	TopFamily          string   `json:"top_family,omitempty"`
	Rows               int      `json:"rows"`
	ReusedConditioning bool     `json:"reused_conditioning"`
	ElapsedMS          int64    `json:"elapsed_ms"`
}

type investigationPayload struct {
	ID        string        `json:"id"`
	Target    string        `json:"target"`
	Condition []string      `json:"condition"`
	Steps     []stepPayload `json:"steps"`
}

func investigationInfo(id string, inv *explainit.Investigation) investigationPayload {
	hist := inv.History()
	steps := make([]stepPayload, len(hist))
	for i, h := range hist {
		steps[i] = stepPayload{
			Step:               h.Step,
			Condition:          h.Condition,
			TopFamily:          h.TopFamily,
			Rows:               h.Rows,
			ReusedConditioning: h.ReusedConditioning,
			ElapsedMS:          h.Elapsed.Milliseconds(),
		}
	}
	return investigationPayload{ID: id, Target: inv.Target(), Condition: inv.Conditioning(), Steps: steps}
}

func (s *Server) handleInvestigations(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req createInvestigationRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, err)
			return
		}
		inv, err := s.client.NewInvestigation(req.Target, explainit.InvestigateOptions{
			Condition:   req.Condition,
			SearchSpace: req.SearchSpace,
			Scorer:      explainit.ScorerName(req.Scorer),
			TopK:        req.TopK,
			Workers:     req.Workers,
			Seed:        req.Seed,
			Pseudocause: req.Pseudocause,
		})
		if err != nil {
			writeError(w, err)
			return
		}
		s.mu.Lock()
		if len(s.invs) >= s.limits.MaxSessions {
			s.mu.Unlock()
			_ = inv.Close()
			writeError(w, fmt.Errorf("%w: session quota of %d investigations reached (DELETE idle sessions or raise Limits.MaxSessions)",
				explainit.ErrOverloaded, s.limits.MaxSessions))
			return
		}
		s.nextInv++
		id := "inv-" + strconv.Itoa(s.nextInv)
		s.invs[id] = &session{inv: inv, lastUsed: time.Now()}
		s.mu.Unlock()
		writeJSON(w, http.StatusCreated, investigationInfo(id, inv))
	case http.MethodGet:
		s.mu.Lock()
		ids := make([]string, 0, len(s.invs))
		for id := range s.invs {
			ids = append(ids, id)
		}
		invs := make(map[string]*explainit.Investigation, len(ids))
		for _, id := range ids {
			invs[id] = s.invs[id].inv
		}
		s.mu.Unlock()
		out := make([]investigationPayload, 0, len(ids))
		for _, id := range ids {
			out = append(out, investigationInfo(id, invs[id]))
		}
		writeJSON(w, http.StatusOK, out)
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

func (s *Server) investigation(r *http.Request) (string, *explainit.Investigation, error) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.invs[id]
	if ok {
		sess.lastUsed = time.Now() // any touch resets the idle-eviction clock
	}
	s.mu.Unlock()
	if !ok {
		return id, nil, fmt.Errorf("%w %q", explainit.ErrUnknownInvestigation, id)
	}
	return id, sess.inv, nil
}

func (s *Server) handleInvestigation(w http.ResponseWriter, r *http.Request) {
	id, inv, err := s.investigation(r)
	if err != nil {
		writeError(w, err)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, investigationInfo(id, inv))
	case http.MethodDelete:
		// Tear the session down: cancel and drop its jobs, close the
		// session (releasing the cached factorizations), and forget it —
		// the eviction path that keeps a long-running daemon's memory
		// bounded.
		payload := investigationInfo(id, inv)
		s.mu.Lock()
		delete(s.invs, id)
		for jid, j := range s.jobs {
			if j.invID == id {
				j.cancel()
				delete(s.jobs, jid)
			}
		}
		s.mu.Unlock()
		_ = inv.Close()
		writeJSON(w, http.StatusOK, payload)
	default:
		methodNotAllowed(w, "GET, DELETE")
	}
}

type conditionRequest struct {
	Add  []string `json:"add,omitempty"`
	Drop []string `json:"drop,omitempty"`
}

func (s *Server) handleCondition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	id, inv, err := s.investigation(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req conditionRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Drop) > 0 {
		if err := inv.Drop(req.Drop...); err != nil {
			writeError(w, err)
			return
		}
	}
	if len(req.Add) > 0 {
		if err := inv.Condition(req.Add...); err != nil {
			writeError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, investigationInfo(id, inv))
}
