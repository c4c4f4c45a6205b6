package apihttp

import (
	"fmt"
	"net/http"
	"time"

	"explainit"
)

// Standing queries over the wire. POST /api/v1/watch registers an
// EXPLAIN ... EVERY statement and returns the watcher id; GET
// /api/v1/watch/{id}/events follows its ranking updates as server-sent
// events (latest-wins delivery — a slow consumer sees the newest ranking,
// not a backlog); DELETE cancels. Watchers are standing state, so unlike
// step jobs an SSE disconnect does NOT cancel the watcher — it just
// detaches the subscriber. Tenants (X-Tenant) hold a bounded number of
// live watchers; arrivals beyond the budget are shed with a typed 429.

type createWatchRequest struct {
	SQL string `json:"sql"`
}

// handleWatches serves POST (create) and GET (list) on /api/v1/watch.
func (s *Server) handleWatches(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req createWatchRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, err)
			return
		}
		tenant := tenantOf(r)
		// Watcher budget: a standing query occupies engine capacity for its
		// whole lifetime, so the per-tenant bound is on live watchers, not
		// in-flight requests.
		if n := s.client.WatchTenantCount(tenant); n >= s.limits.TenantWatchers {
			s.client.NoteWatchShed()
			writeError(w, fmt.Errorf("%w: tenant %q holds %d live watchers (budget %d); DELETE one or raise Limits.TenantWatchers",
				explainit.ErrOverloaded, tenant, n, s.limits.TenantWatchers))
			return
		}
		info, err := s.client.CreateWatch(req.SQL, tenant)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.client.WatchInfos())
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

// handleWatch serves GET (info) and DELETE (cancel) on /api/v1/watch/{id}.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		info, err := s.client.WatchInfo(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	case http.MethodDelete:
		info, err := s.client.WatchInfo(id)
		if err != nil {
			writeError(w, err)
			return
		}
		if err := s.client.CancelWatch(id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	default:
		methodNotAllowed(w, "GET, DELETE")
	}
}

// watchEventPayload is the SSE wire form of one ranking update.
type watchEventPayload struct {
	Watch           string       `json:"watch"`
	Seq             uint64       `json:"seq"`
	At              time.Time    `json:"at"`
	Reason          string       `json:"reason"`
	Rows            []rowPayload `json:"rows,omitempty"`
	Investigation   string       `json:"investigation,omitempty"`
	AnomalyFrom     *time.Time   `json:"anomaly_from,omitempty"`
	AnomalyTo       *time.Time   `json:"anomaly_to,omitempty"`
	AnomalySeverity float64      `json:"anomaly_severity,omitempty"`
	Error           string       `json:"error,omitempty"`
}

func watchEventFrom(u explainit.RankingUpdate) watchEventPayload {
	p := watchEventPayload{
		Watch:         u.WatchID,
		Seq:           u.Seq,
		At:            u.At,
		Reason:        u.Reason,
		Investigation: u.Investigation,
	}
	p.Rows = make([]rowPayload, len(u.Rows))
	for i, row := range u.Rows {
		p.Rows[i] = rowFromRanked(row)
	}
	if !u.AnomalyFrom.IsZero() {
		from, to := u.AnomalyFrom, u.AnomalyTo
		p.AnomalyFrom, p.AnomalyTo = &from, &to
		p.AnomalySeverity = u.AnomalySeverity
	}
	if u.Err != nil {
		p.Error = u.Err.Error()
	}
	return p
}

// handleWatchEvents follows one watcher as SSE "update" events. A watcher
// that has already emitted replays its latest ranking immediately, so a
// fresh subscriber renders the current state without waiting a cadence.
// The stream ends with a "gone" event when the watcher is cancelled; a
// client disconnect detaches the subscriber but leaves the watcher
// running. Idle streams carry ": keepalive" comment frames.
func (s *Server) handleWatchEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	ch, unsub, err := s.client.WatchSubscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer unsub()
	flusher, keepaliveC, stop, ok := s.openSSE(w)
	if !ok {
		return
	}
	defer stop()
	for {
		select {
		case u, open := <-ch:
			if !open {
				// Watcher cancelled (or server-side teardown): tell the
				// client this stream will never produce again.
				_ = writeSSE(w, "gone", map[string]string{"watch": r.PathValue("id")})
				flusher.Flush()
				return
			}
			if err := writeSSE(w, "update", watchEventFrom(u)); err != nil {
				return
			}
			flusher.Flush()
		case <-keepaliveC:
			if err := writeKeepalive(w, flusher); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			// Server shutting down: end the stream promptly instead of
			// holding the connection until the watcher dies.
			return
		}
	}
}
