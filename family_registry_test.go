package explainit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"explainit/internal/core"
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

// TestBuildFamiliesDuringOutOfOrderWrites: a rebuild reads the shards in
// place under their locks, so it must see each shard whole. While one
// goroutine rebuilds in a loop, writers put samples out of order (older
// than a series' newest, so their shards must be sorted under the write
// lock before the next read) to seeded series and to new ones, all before
// the build range, and SQL SELECTs scan the store; every build's families
// must equal, bit for bit, a rebuild after the writers stop. Run it under
// -race.
func TestBuildFamiliesDuringOutOfOrderWrites(t *testing.T) {
	c, from, to := seedClient(t)
	const window = 400 * time.Millisecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				at := from.Add(-time.Duration(k) * time.Second)
				batch := []Observation{
					{Metric: "tcp_retransmits", Tags: Tags{"host": "dn-1"}, At: at, Value: 1e9},
					{Metric: "noise_" + string(rune('a'+k%5)), Tags: Tags{"idx": "0"}, At: at, Value: -1e9},
					{Metric: "late_" + strconv.Itoa(w), Tags: Tags{"k": strconv.Itoa(k % 50)}, At: at, Value: 1},
				}
				if err := c.PutBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Query(context.Background(), `SELECT metric_name, COUNT(*) AS n FROM tsdb GROUP BY metric_name`); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var builds [][]*core.Family
	for deadline := time.Now().Add(window); time.Now().Before(deadline); {
		if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
			t.Fatal(err)
		}
		builds = append(builds, c.registrySnapshot())
	}
	close(stop)
	wg.Wait()
	if len(builds) < 2 {
		t.Fatalf("%d builds in %v", len(builds), window)
	}
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	want := c.registrySnapshot()
	for i, got := range builds {
		if err := sameFamilyBits(got, want); err != nil {
			t.Fatalf("build %d of %d: %v", i+1, len(builds), err)
		}
	}
}

// registrySnapshot returns the registry's families sorted by name.
func (c *Client) registrySnapshot() []*core.Family {
	return c.reg.Load().sorted
}

// sameFamilyBits reports the first difference between two registries:
// family names, column names, index entries and data bits.
func sameFamilyBits(got, want []*core.Family) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d families, want %d", len(got), len(want))
	}
	for k, g := range got {
		w := want[k]
		switch {
		case g.Name != w.Name:
			return fmt.Errorf("family %d named %q, want %q", k, g.Name, w.Name)
		case !slices.Equal(g.Columns, w.Columns):
			return fmt.Errorf("family %q: columns %q, want %q", g.Name, g.Columns, w.Columns)
		case !slices.Equal(g.Index, w.Index):
			return fmt.Errorf("family %q: index differs", g.Name)
		case g.Matrix.Rows != w.Matrix.Rows || g.Matrix.Cols != w.Matrix.Cols:
			return fmt.Errorf("family %q: shape %dx%d, want %dx%d", g.Name, g.Matrix.Rows, g.Matrix.Cols, w.Matrix.Rows, w.Matrix.Cols)
		}
		for i, v := range g.Matrix.Data {
			if math.Float64bits(v) != math.Float64bits(w.Matrix.Data[i]) {
				return fmt.Errorf("family %q: cell %d = %v, want %v", g.Name, i, v, w.Matrix.Data[i])
			}
		}
	}
	return nil
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
