package explainit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"explainit/internal/core"
	"explainit/internal/obs"
	"explainit/internal/tsdb"
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

// TestDuplicateRepairOrderFree: duplicate (series, timestamp) samples are
// primary-key violations the store keeps, and every reader must see them
// repaired one way whatever order they arrived in and wherever they are
// stored. One batch with conflicting duplicates, put in 5 seeded
// permutations into in-memory stores of 1, 4 and 7 shards and into a
// 4-shard durable store that is then reopened, must give byte-identical
// Save snapshots, identical Run output and SQL scan rows (duplicates as
// separate samples, in canonical order) and bitwise identical families.
// Summed in arrival order, 1e16, 1 and -1e16 in one cell average to 0 or
// 1/3 depending on the batch order.
func TestDuplicateRepairOrderFree(t *testing.T) {
	var batch []Observation
	for i := 0; i < 60; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		batch = append(batch,
			Observation{Metric: "disk", Tags: Tags{"host": "dn-1"}, At: at, Value: float64(i)},
			Observation{Metric: "cpu", Tags: Tags{"host": "dn-1"}, At: at, Value: float64(i % 7)})
	}
	for _, dup := range []struct {
		minute int
		vals   []float64
	}{{10, []float64{1e16, 1, -1e16}}, {20, []float64{0.1, 0.2, 0.3}}, {30, []float64{-1e16, 3, 1e16, 3}}} {
		at := t0.Add(time.Duration(dup.minute) * time.Minute)
		for _, v := range dup.vals {
			batch = append(batch,
				Observation{Metric: "disk", Tags: Tags{"host": "dn-2"}, At: at, Value: v},
				Observation{Metric: "cpu", Tags: Tags{"host": "dn-1"}, At: at, Value: v})
		}
	}
	from, to := t0, t0.Add(time.Hour)

	type readout struct {
		save      []byte
		run, rows string
		families  []*core.Family
		what      string
	}
	read := func(what string, c *Client) readout {
		t.Helper()
		var save bytes.Buffer
		if err := c.db.Save(&save); err != nil {
			t.Fatal(err)
		}
		series, err := c.db.Run(tsdb.Query{})
		if err != nil {
			t.Fatal(err)
		}
		var run strings.Builder
		for _, s := range series {
			fmt.Fprintf(&run, "%s:", s.ID())
			for _, smp := range s.Samples {
				fmt.Fprintf(&run, " %d=%x", smp.TS.UnixNano(), math.Float64bits(smp.Value))
			}
			run.WriteByte('\n')
		}
		res, err := c.Query(context.Background(), `SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu'`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
			t.Fatal(err)
		}
		return readout{save.Bytes(), run.String(), fmt.Sprint(res.Rows), c.registrySnapshot(), what}
	}
	var want readout
	same := func(got readout) {
		t.Helper()
		if want.what == "" {
			want = got
			return
		}
		switch {
		case !bytes.Equal(got.save, want.save):
			t.Fatalf("%s: Save bytes differ from %s", got.what, want.what)
		case got.run != want.run:
			t.Fatalf("%s: Run returned\n%s\n%s returned\n%s", got.what, got.run, want.what, want.run)
		case got.rows != want.rows:
			t.Fatalf("%s: SQL scan rows differ from %s", got.what, want.what)
		}
		if err := sameFamilyBits(got.families, want.families); err != nil {
			t.Fatalf("%s vs %s: %v", got.what, want.what, err)
		}
	}
	for perm := int64(0); perm < 5; perm++ {
		recs := slices.Clone(batch)
		rand.New(rand.NewSource(perm)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		for _, shards := range []int{1, 4, 7} {
			c := newClient(tsdb.NewWithShards(shards))
			if err := c.PutBatch(recs); err != nil {
				t.Fatal(err)
			}
			same(read(fmt.Sprintf("permutation %d at %d shards", perm, shards), c))
		}
		dir := t.TempDir()
		c, err := OpenShards(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PutBatch(recs); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c, err = OpenShards(dir, 4); err != nil {
			t.Fatal(err)
		}
		same(read(fmt.Sprintf("permutation %d durable, reopened", perm), c))
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// In canonical order the +10m cell sums 1, 1e16, -1e16: 1 is absorbed.
	if cell := want.families[1].Matrix.At(10, 1); cell != 0 {
		t.Fatalf("disk{host=dn-2} at +10m averaged %v, want 0", cell)
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
