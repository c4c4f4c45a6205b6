package explainit

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"explainit/internal/obs"
)

// TestBuildFamiliesAtomicSwap: a rebuild replaces the registry in one step.
// While one goroutine rebuilds in a loop, EXPLAINs and SQL EXPLAINs of
// families present in every build must never see ErrUnknownFamily — which
// they did when the registry was cleared and refilled in two critical
// sections. Run it under -race.
func TestBuildFamiliesAtomicSwap(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	c.SetRankingCacheCapacity(0) // every read resolves the registry afresh

	const window = 500 * time.Millisecond
	stop := make(chan struct{})
	rebuilt := make(chan int)
	go func() {
		n := 0
		defer func() { rebuilt <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()

	opts := ExplainOptions{Target: "pipeline_runtime", Condition: []string{"noise_a"},
		SearchSpace: []string{"tcp_retransmits", "noise_b"}, Workers: 1}
	reads := []func() error{
		func() error { _, err := c.Explain(opts); return err },
		func() error {
			_, err := c.Query(context.Background(), "EXPLAIN pipeline_runtime GIVEN noise_a LIMIT 3")
			return err
		},
	}
	var wg sync.WaitGroup
	for _, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline := time.Now().Add(window); time.Now().Before(deadline); {
				if err := read(); err != nil {
					if errors.Is(err, ErrUnknownFamily) {
						t.Errorf("read during a rebuild: %v", err)
					} else {
						t.Error(err)
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-rebuilt; n == 0 {
		t.Fatal("no rebuild overlapped the reads")
	}
}

// TestBuildFamiliesMetrics: every rebuild is visible on /metrics — its
// latency histogram and the series read and families produced.
func TestBuildFamiliesMetrics(t *testing.T) {
	c, from, to := seedClient(t)
	series, fams, builds := metBuildSeries.Value(), metBuildFamilies.Value(), buildFamiliesCount(t)
	infos, err := c.BuildFamilies("name", from, to, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := metBuildSeries.Value() - series; got != uint64(c.NumSeries()) {
		t.Errorf("explainit_build_families_series grew by %d, want %d", got, c.NumSeries())
	}
	if got := metBuildFamilies.Value() - fams; got != uint64(len(infos)) {
		t.Errorf("explainit_build_families_families grew by %d, want %d", got, len(infos))
	}
	if got := buildFamiliesCount(t) - builds; got != 1 {
		t.Errorf("explainit_build_families_ms_count grew by %d, want 1", got)
	}
}

// buildFamiliesCount reads explainit_build_families_ms_count from the
// Prometheus text /metrics serves.
func buildFamiliesCount(t *testing.T) uint64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "explainit_build_families_ms_count "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("/metrics has no explainit_build_families_ms_count")
	return 0
}
