package apihttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"explainit"
)

// Job statuses.
const (
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// job is one asynchronous investigation step: the facade stream runs under
// the job's own cancellable context; scored rows accumulate for pollers,
// and SSE subscribers tail the accumulated state behind a change
// notification — a high-watermark design with no per-subscriber buffers to
// size or overflow, so a late subscriber replays the whole job and a slow
// one simply lags.
type job struct {
	id     string
	invID  string
	cancel context.CancelFunc

	mu       sync.Mutex
	status   string
	scored   int
	total    int
	rows     []rowPayload
	final    *rankingPayload
	errMsg   string
	errCode  string
	finished bool
	notify   chan struct{} // closed and replaced on every state change
}

// changedLocked wakes every waiter by closing the current notification
// channel and arming a fresh one.
func (j *job) changedLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

type jobPayload struct {
	ID            string           `json:"id"`
	Investigation string           `json:"investigation"`
	Status        string           `json:"status"`
	Scored        int              `json:"scored"`
	Total         int              `json:"total"`
	Rows          []rowPayload     `json:"rows,omitempty"`    // partial, completion order
	Ranking       *rankingPayload  `json:"ranking,omitempty"` // final, rank order
	Error         *explainit.Error `json:"error,omitempty"`
}

func (j *job) payloadLocked() jobPayload {
	p := jobPayload{
		ID:            j.id,
		Investigation: j.invID,
		Status:        j.status,
		Scored:        j.scored,
		Total:         j.total,
		Rows:          append([]rowPayload(nil), j.rows...),
		Ranking:       j.final,
	}
	if j.errMsg != "" {
		p.Error = &explainit.Error{Code: j.errCode, Message: j.errMsg}
	}
	return p
}

// handleStep launches one asynchronous step job for the investigation and
// returns its id immediately; progress is polled at /api/v1/jobs/{id} or
// streamed from /api/v1/jobs/{id}/events.
func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	invID, inv, err := s.investigation(r)
	if err != nil {
		writeError(w, err)
		return
	}
	// The job occupies its admission slot from launch until the ranking
	// stream drains, not just for the lifetime of this request.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	// The stream is created synchronously so session-state errors
	// (ErrStepInProgress, ErrInvestigationClosed, unknown search-space
	// family) surface on the step request itself, not inside the job.
	ch, err := inv.ExplainStream(ctx)
	if err != nil {
		cancel()
		release()
		writeError(w, err)
		return
	}
	j := s.launchJob(invID, cancel, release, ch)
	j.mu.Lock()
	payload := j.payloadLocked()
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, payload)
}

// launchJob registers a job over a facade ranking stream and starts the
// goroutine that folds stream events into the job's pollable state. invID
// is "" for sessionless jobs (async SQL queries); release (nil-safe) is the
// job's admission slot, freed when the stream drains.
func (s *Server) launchJob(invID string, cancel context.CancelFunc, release func(), ch <-chan explainit.RankUpdate) *job {
	s.mu.Lock()
	s.nextJob++
	j := &job{
		id:     "job-" + strconv.Itoa(s.nextJob),
		invID:  invID,
		cancel: cancel,
		status: JobRunning,
		notify: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.mu.Unlock()

	go func() {
		defer func() {
			cancel()
			if release != nil {
				release()
			}
		}()
		for u := range ch {
			j.mu.Lock()
			j.scored, j.total = u.Scored, u.Total
			switch {
			case u.Row != nil:
				j.rows = append(j.rows, rowFromRanked(*u.Row))
			case u.Err != nil:
				status := JobFailed
				code := explainit.ErrorCode(u.Err)
				if errors.Is(u.Err, context.Canceled) || errors.Is(u.Err, context.DeadlineExceeded) {
					status, code = JobCancelled, "cancelled"
				}
				if code == "" {
					code = "internal"
				}
				j.status, j.errMsg, j.errCode, j.finished = status, u.Err.Error(), code, true
			case u.Final != nil:
				final := payloadFromRanking(u.Final)
				j.final, j.status, j.finished = &final, JobDone, true
			}
			j.changedLocked()
			j.mu.Unlock()
		}
	}()
	return j
}

func (s *Server) job(r *http.Request) (*job, error) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", explainit.ErrUnknownJob, id)
	}
	return j, nil
}

// handleJob polls (GET) or cancels-and-removes (DELETE) one job. DELETE is
// the eviction path: a running job's workers are cancelled, and the job's
// accumulated rows are dropped from the server either way, so clients that
// delete what they are done with keep a long-running daemon's memory flat.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		writeError(w, err)
		return
	}
	switch r.Method {
	case http.MethodGet:
		j.mu.Lock()
		payload := j.payloadLocked()
		j.mu.Unlock()
		writeJSON(w, http.StatusOK, payload)
	case http.MethodDelete:
		j.cancel()
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		j.mu.Lock()
		payload := j.payloadLocked()
		j.mu.Unlock()
		writeJSON(w, http.StatusOK, payload)
	default:
		methodNotAllowed(w, "GET, DELETE")
	}
}

// writeSSE writes one named event frame.
func writeSSE(w http.ResponseWriter, name string, data interface{}) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, payload)
	return err
}

// openSSE starts a server-sent-events response: it checks that w can
// stream, then sends and flushes the event-stream headers. Idle streams
// write a keepalive frame on every tick of the returned channel, so proxies
// and load balancers with idle timeouts don't reap a live connection; the
// channel is nil (never fires) when Limits.SSEKeepalive is off. Call stop
// when the stream ends. ok is false, with the error written, when w cannot
// stream.
func (s *Server) openSSE(w http.ResponseWriter) (flusher http.Flusher, keepalive <-chan time.Time, stop func(), ok bool) {
	if flusher, ok = w.(http.Flusher); !ok {
		writeErrorCode(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return nil, nil, nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	stop = func() {}
	if s.limits.SSEKeepalive > 0 {
		ticker := time.NewTicker(s.limits.SSEKeepalive)
		keepalive, stop = ticker.C, ticker.Stop
	}
	return flusher, keepalive, stop, true
}

// writeKeepalive writes and flushes one ": keepalive" frame — the SSE
// grammar's comment line, which clients discard.
func writeKeepalive(w http.ResponseWriter, flusher http.Flusher) error {
	_, err := fmt.Fprint(w, ": keepalive\n\n")
	flusher.Flush()
	return err
}

// handleJobEvents streams one job as server-sent events: a "row" event per
// scored candidate (replayed from the start for late subscribers), then
// one terminal "done" (completed ranking) or "error" event. A client that
// disconnects before the terminal event cancels the job — the watcher owns
// the step — so the server reaps the scoring workers instead of finishing
// a ranking nobody will read.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	j, err := s.job(r)
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, keepaliveC, stop, ok := s.openSSE(w)
	if !ok {
		return
	}
	defer stop()

	sent := 0
	for {
		j.mu.Lock()
		pending := append([]rowPayload(nil), j.rows[sent:]...)
		sent = len(j.rows)
		finished := j.finished
		final := j.final
		errCode, errMsg := j.errCode, j.errMsg
		waitCh := j.notify
		j.mu.Unlock()

		for _, row := range pending {
			if err := writeSSE(w, "row", row); err != nil {
				j.cancelIfRunning()
				return
			}
		}
		if len(pending) > 0 {
			flusher.Flush()
		}
		if finished {
			if final != nil {
				_ = writeSSE(w, "done", *final)
			} else {
				_ = writeSSE(w, "error", explainit.Error{Code: errCode, Message: errMsg})
			}
			flusher.Flush()
			return
		}
		select {
		case <-waitCh:
		case <-keepaliveC:
			if err := writeKeepalive(w, flusher); err != nil {
				j.cancelIfRunning()
				return
			}
		case <-r.Context().Done():
			// Client disconnected mid-stream: reap the job's workers.
			j.cancelIfRunning()
			return
		}
	}
}

// cancelIfRunning cancels the job unless it already reached a terminal
// state.
func (j *job) cancelIfRunning() {
	j.mu.Lock()
	finished := j.finished
	j.mu.Unlock()
	if !finished {
		j.cancel()
	}
}
