package monitor

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend is a scriptable engine: tests advance its generation and swap
// the ranking it returns, then drive watcher ticks deterministically.
type fakeBackend struct {
	mu        sync.Mutex
	gen       uint64
	rows      []Row
	evalErr   error
	evals     int
	scans     int
	anomaly   *AnomalyHit
	scanErr   error
	lastEval  Query
	invOpens  int
	invCloses int32
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{gen: 1, rows: []Row{{Rank: 1, Family: "a", Score: 1.0}}}
}

func (f *fakeBackend) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

func (f *fakeBackend) Evaluate(ctx context.Context, q Query) ([]Row, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.evals++
	f.lastEval = q
	if f.evalErr != nil {
		return nil, f.evalErr
	}
	out := make([]Row, len(f.rows))
	copy(out, f.rows)
	return out, nil
}

func (f *fakeBackend) AnomalyScan(ctx context.Context, q Query) (AnomalyHit, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scans++
	if f.scanErr != nil {
		return AnomalyHit{}, false, f.scanErr
	}
	if f.anomaly == nil {
		return AnomalyHit{}, false, nil
	}
	return *f.anomaly, true, nil
}

func (f *fakeBackend) OpenInvestigation(q Query) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.invOpens++
	return fmt.Sprintf("inv%d", f.invOpens), nil
}

func (f *fakeBackend) CloseInvestigation(id string) { atomic.AddInt32(&f.invCloses, 1) }

func (f *fakeBackend) advance() {
	f.mu.Lock()
	f.gen++
	f.mu.Unlock()
}

func (f *fakeBackend) setRows(rows []Row) {
	f.mu.Lock()
	f.rows = rows
	f.mu.Unlock()
}

func (f *fakeBackend) evalCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evals
}

func manualManager(t *testing.T, b Backend) *Manager {
	t.Helper()
	m := NewManager(b, Options{Manual: true})
	t.Cleanup(m.Close)
	return m
}

func mustAdd(t *testing.T, m *Manager, q Query) *Watcher {
	t.Helper()
	w, err := m.Add(q, "")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func recvUpdate(t *testing.T, ch <-chan Update) Update {
	t.Helper()
	select {
	case u, ok := <-ch:
		if !ok {
			t.Fatal("update channel closed")
		}
		return u
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for update")
	}
	return Update{}
}

func TestWatcherEmitsInitialThenGatesOnWatermark(t *testing.T) {
	b := newFakeBackend()
	m := manualManager(t, b)
	w := mustAdd(t, m, Query{SQL: "EXPLAIN t EVERY '1s'", Target: "t", Every: time.Second})
	ch, unsub := w.Subscribe()
	defer unsub()

	ctx := context.Background()
	w.Tick(ctx)
	u := recvUpdate(t, ch)
	if u.Reason != "initial" || u.Seq != 1 || len(u.Rows) != 1 || u.Rows[0].Family != "a" {
		t.Fatalf("unexpected first update: %+v", u)
	}
	if b.evalCount() != 1 {
		t.Fatalf("evals = %d, want 1", b.evalCount())
	}

	// No generation advance: the tick must do no engine work at all.
	w.Tick(ctx)
	w.Tick(ctx)
	if b.evalCount() != 1 {
		t.Fatalf("no-change ticks ran the engine: evals = %d", b.evalCount())
	}
	info := w.Info()
	if info.Ticks != 3 || info.Skips != 2 || info.Evals != 1 || info.Emits != 1 {
		t.Fatalf("counters: %+v", info)
	}

	// Advance the generation but keep the ranking identical: evaluates, does
	// not emit.
	b.advance()
	w.Tick(ctx)
	if b.evalCount() != 2 {
		t.Fatalf("evals = %d, want 2", b.evalCount())
	}
	select {
	case u := <-ch:
		t.Fatalf("unchanged ranking emitted: %+v", u)
	default:
	}
}

func TestWatcherDiffReasons(t *testing.T) {
	b := newFakeBackend()
	b.setRows([]Row{{Rank: 1, Family: "a", Score: 2}, {Rank: 2, Family: "b", Score: 1}})
	m := manualManager(t, b)
	w := mustAdd(t, m, Query{Every: time.Second})
	ch, unsub := w.Subscribe()
	defer unsub()
	ctx := context.Background()

	w.Tick(ctx)
	if u := recvUpdate(t, ch); u.Reason != "initial" {
		t.Fatalf("reason = %q, want initial", u.Reason)
	}

	// Same set, swapped order.
	b.setRows([]Row{{Rank: 1, Family: "b", Score: 2.5}, {Rank: 2, Family: "a", Score: 2}})
	b.advance()
	w.Tick(ctx)
	if u := recvUpdate(t, ch); u.Reason != "order" {
		t.Fatalf("reason = %q, want order", u.Reason)
	}

	// New family enters.
	b.setRows([]Row{{Rank: 1, Family: "b", Score: 2.5}, {Rank: 2, Family: "c", Score: 2}})
	b.advance()
	w.Tick(ctx)
	if u := recvUpdate(t, ch); u.Reason != "membership" {
		t.Fatalf("reason = %q, want membership", u.Reason)
	}

	// Score drifts beyond epsilon, order intact.
	b.setRows([]Row{{Rank: 1, Family: "b", Score: 2.6}, {Rank: 2, Family: "c", Score: 2}})
	b.advance()
	w.Tick(ctx)
	if u := recvUpdate(t, ch); u.Reason != "score" {
		t.Fatalf("reason = %q, want score", u.Reason)
	}

	// Sub-epsilon score wiggle: no emit.
	b.setRows([]Row{{Rank: 1, Family: "b", Score: 2.6 + 1e-12}, {Rank: 2, Family: "c", Score: 2}})
	b.advance()
	w.Tick(ctx)
	select {
	case u := <-ch:
		t.Fatalf("sub-epsilon wiggle emitted: %+v", u)
	default:
	}
}

func TestSubscribeReplaysLastUpdate(t *testing.T) {
	b := newFakeBackend()
	m := manualManager(t, b)
	w := mustAdd(t, m, Query{Every: time.Second})
	w.Tick(context.Background())

	ch, unsub := w.Subscribe()
	defer unsub()
	u := recvUpdate(t, ch)
	if u.Reason != "initial" || u.Seq != 1 {
		t.Fatalf("late joiner got %+v", u)
	}
}

func TestLatestWinsDropsOldest(t *testing.T) {
	b := newFakeBackend()
	m := NewManager(b, Options{Manual: true, SubscriberBuffer: 1})
	defer m.Close()
	w, err := m.Add(Query{Every: time.Second}, "")
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := w.Subscribe()
	defer unsub()
	ctx := context.Background()

	w.Tick(ctx) // seq 1 fills the buffer
	b.setRows([]Row{{Rank: 1, Family: "z", Score: 9}})
	b.advance()
	w.Tick(ctx) // seq 2 evicts seq 1

	u := recvUpdate(t, ch)
	if u.Seq != 2 || u.Rows[0].Family != "z" {
		t.Fatalf("got %+v, want the latest update (seq 2)", u)
	}
}

func TestAnomalyGate(t *testing.T) {
	b := newFakeBackend()
	m := manualManager(t, b)
	w := mustAdd(t, m, Query{Target: "t", Every: time.Second, OnAnomaly: true})
	ch, unsub := w.Subscribe()
	defer unsub()
	ctx := context.Background()

	// Quiet target: scan runs, evaluation does not.
	w.Tick(ctx)
	if b.evalCount() != 0 {
		t.Fatal("quiet anomaly tick ran EXPLAIN")
	}
	// Quiet tick recorded the generation: the next tick is fully free.
	w.Tick(ctx)
	b.mu.Lock()
	scans := b.scans
	b.mu.Unlock()
	if scans != 1 {
		t.Fatalf("scans = %d, want 1 (second tick should skip on generation)", scans)
	}

	// A window fires: evaluation runs, the update carries the window and an
	// auto-opened investigation id.
	hit := AnomalyHit{From: time.Unix(100, 0), To: time.Unix(160, 0), Severity: 4.2}
	b.mu.Lock()
	b.anomaly = &hit
	b.mu.Unlock()
	b.advance()
	w.Tick(ctx)
	u := recvUpdate(t, ch)
	if u.Anomaly == nil || !u.Anomaly.From.Equal(hit.From) || u.Anomaly.Severity != 4.2 {
		t.Fatalf("anomaly window missing: %+v", u)
	}
	if u.Investigation != "inv1" {
		t.Fatalf("investigation = %q, want inv1", u.Investigation)
	}
	b.mu.Lock()
	ev := b.lastEval
	b.mu.Unlock()
	if !ev.From.Equal(hit.From) || !ev.To.Equal(hit.To) {
		t.Fatalf("fired window not used as explain range: %+v", ev)
	}

	// Cancelling the watcher closes the investigation.
	if err := m.Cancel(w.ID()); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(&b.invCloses); n != 1 {
		t.Fatalf("investigation closes = %d, want 1", n)
	}
}

func TestAnomalyKeepsExplicitRange(t *testing.T) {
	b := newFakeBackend()
	hit := AnomalyHit{From: time.Unix(100, 0), To: time.Unix(160, 0)}
	b.anomaly = &hit
	m := manualManager(t, b)
	from, to := time.Unix(0, 0), time.Unix(1000, 0)
	w := mustAdd(t, m, Query{Every: time.Second, OnAnomaly: true, From: from, To: to})
	w.Tick(context.Background())
	b.mu.Lock()
	ev := b.lastEval
	b.mu.Unlock()
	if !ev.From.Equal(from) || !ev.To.Equal(to) {
		t.Fatalf("explicit OVER range overridden: %+v", ev)
	}
}

func TestErrorEmitsOncePerWatermark(t *testing.T) {
	b := newFakeBackend()
	b.evalErr = fmt.Errorf("boom")
	m := manualManager(t, b)
	w := mustAdd(t, m, Query{Every: time.Second})
	ch, unsub := w.Subscribe()
	defer unsub()
	ctx := context.Background()

	w.Tick(ctx)
	u := recvUpdate(t, ch)
	if u.Reason != "error" || u.Err == nil {
		t.Fatalf("got %+v, want error update", u)
	}
	// Same generation: no retry, no second error.
	w.Tick(ctx)
	if b.evalCount() != 1 {
		t.Fatalf("retried on unchanged generation: evals = %d", b.evalCount())
	}
	// Generation advance retries; recovery emits the ranking as "initial"
	// (no prior good ranking).
	b.mu.Lock()
	b.evalErr = nil
	b.mu.Unlock()
	b.advance()
	w.Tick(ctx)
	u = recvUpdate(t, ch)
	if u.Reason != "initial" || u.Err != nil {
		t.Fatalf("recovery update: %+v", u)
	}
}

func TestManagerLifecycle(t *testing.T) {
	b := newFakeBackend()
	m := NewManager(b, Options{Manual: true})
	w1, _ := m.Add(Query{Every: time.Second}, "alice")
	m.Add(Query{Every: time.Second}, "alice")
	m.Add(Query{Every: time.Second}, "bob")
	m.NoteShed()

	if got := m.TenantCount("alice"); got != 2 {
		t.Fatalf("alice watchers = %d, want 2", got)
	}
	s := m.Stats()
	if s.Active != 3 || s.Total != 3 || s.Shed != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if len(m.List()) != 3 {
		t.Fatal("list length")
	}
	if err := m.Cancel(w1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(w1.ID()); err == nil {
		t.Fatal("double cancel succeeded")
	}
	s = m.Stats()
	if s.Active != 2 || s.Total != 3 {
		t.Fatalf("stats after cancel = %+v", s)
	}
	m.Close()
	if _, err := m.Add(Query{Every: time.Second}, ""); err != ErrClosed {
		t.Fatalf("Add after Close: %v", err)
	}
	s = m.Stats()
	if s.Active != 0 {
		t.Fatalf("active after close = %d", s.Active)
	}
}

func TestAddRejectsNonPositiveCadence(t *testing.T) {
	m := manualManager(t, newFakeBackend())
	if _, err := m.Add(Query{}, ""); err == nil {
		t.Fatal("zero cadence accepted")
	}
}

func TestSubscriberChannelClosesOnCancel(t *testing.T) {
	b := newFakeBackend()
	m := manualManager(t, b)
	w := mustAdd(t, m, Query{Every: time.Second})
	ch, unsub := w.Subscribe()
	defer unsub()
	if err := m.Cancel(w.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("got update, want close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after cancel")
	}
	// Subscribing to a stopped watcher yields a closed channel, not a hang.
	ch2, unsub2 := w.Subscribe()
	defer unsub2()
	if _, ok := <-ch2; ok {
		t.Fatal("stopped watcher delivered a live channel")
	}
}

// TestConcurrentTicksAndSubscribers hammers one watcher from many
// goroutines under -race: manual ticks, churn of subscribers, generation
// advances, and a concurrent cancel.
func TestConcurrentTicksAndSubscribers(t *testing.T) {
	b := newFakeBackend()
	m := NewManager(b, Options{Manual: true})
	defer m.Close()
	w, err := m.Add(Query{Every: time.Millisecond}, "")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w.Tick(ctx)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ch, unsub := w.Subscribe()
				select {
				case <-ch:
				default:
				}
				unsub()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			b.advance()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := m.Cancel(w.ID()); err != nil {
		t.Fatal(err)
	}
}

// TestTimerLoopRuns exercises the real (non-manual) ticker path end to
// end: a short cadence must produce the initial emit without manual ticks.
func TestTimerLoopRuns(t *testing.T) {
	b := newFakeBackend()
	m := NewManager(b, Options{})
	defer m.Close()
	w, err := m.Add(Query{Every: 5 * time.Millisecond}, "")
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := w.Subscribe()
	defer unsub()
	u := recvUpdate(t, ch)
	if u.Reason != "initial" {
		t.Fatalf("reason = %q", u.Reason)
	}
	// A ranking change must surface without any manual intervention.
	b.setRows([]Row{{Rank: 1, Family: "k", Score: 7}})
	b.advance()
	u = recvUpdate(t, ch)
	if u.Rows[0].Family != "k" {
		t.Fatalf("timer loop never picked up the change: %+v", u)
	}
}
