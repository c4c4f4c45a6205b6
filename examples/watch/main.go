// Watch demonstrates standing queries end to end, the way a monitoring
// stack would consume them: a daemon serves the HTTP API, a client
// registers `EXPLAIN latency EVERY '150ms'` with one POST, and follows
// the ranking over the SSE events stream. The scenario then drifts — the
// metric driving latency changes from load to queue_depth — and the flip
// arrives as an "update" event with reason "order", without anyone
// polling EXPLAIN in between. Cadences before the next family rebuild
// cost a generation comparison, not an engine ranking — however much was
// ingested meanwhile — which the watcher's tick/skip/eval counters at the
// end make visible.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"explainit"
	"explainit/internal/apihttp"
)

const step = time.Minute

var t0 = time.Date(2026, 2, 3, 9, 0, 0, 0, time.UTC)

// ingest appends n minutes of the scenario: latency follows `driver` (the
// other candidate and the nuisance series stay noise), starting at minute
// `at`.
func ingest(c *explainit.Client, at, n int, driver string) {
	rng := rand.New(rand.NewSource(int64(at)))
	for i := 0; i < n; i++ {
		ts := t0.Add(time.Duration(at+i) * step)
		load := rng.NormFloat64()
		queue := rng.NormFloat64()
		cause := load
		if driver == "queue_depth" {
			cause = queue
		}
		c.Put("load", nil, ts, 2+load)
		c.Put("queue_depth", nil, ts, 5+queue)
		c.Put("fan_rpm", nil, ts, 900+10*rng.NormFloat64())
		c.Put("latency", nil, ts, 20+3*cause+0.3*rng.NormFloat64())
	}
}

func rebuild(c *explainit.Client) {
	from, to, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, step); err != nil {
		log.Fatal(err)
	}
}

// event is the slice of the SSE update payload the walkthrough prints.
type event struct {
	Seq    uint64 `json:"seq"`
	Reason string `json:"reason"`
	Rows   []struct {
		Family string  `json:"family"`
		Score  float64 `json:"score"`
	} `json:"rows"`
}

// readEvent blocks for the next non-keepalive SSE frame.
func readEvent(rd *bufio.Reader) (string, event) {
	var name string
	var ev event
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				log.Fatal(err)
			}
		case line == "" && name != "":
			return name, ev
		}
	}
}

func printEvent(name string, ev event) {
	if name != "update" {
		fmt.Printf("  [%s]\n", name)
		return
	}
	fmt.Printf("  update seq=%d reason=%-10s top:", ev.Seq, ev.Reason)
	for i, r := range ev.Rows {
		if i == 2 {
			break
		}
		fmt.Printf("  %s=%.2f", r.Family, r.Score)
	}
	fmt.Println()
}

func main() {
	// A store where `load` drives latency, served over HTTP.
	c := explainit.New()
	defer c.Close()
	ingest(c, 0, 360, "load")
	rebuild(c)
	srv := apihttp.NewServer(c)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// Register the standing query. One POST; no polling after this.
	body, _ := json.Marshal(map[string]string{"sql": "EXPLAIN latency EVERY '150ms' LIMIT 5"})
	resp, err := http.Post(ts.URL+"/api/v1/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("registered watcher %s\n", info.ID)

	// Follow it over SSE. The first event replays the initial ranking —
	// load on top, since it drives latency in the seeded regime.
	events, err := http.Get(ts.URL + "/api/v1/watch/" + info.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer events.Body.Close()
	rd := bufio.NewReader(events.Body)
	name, ev := readEvent(rd)
	printEvent(name, ev)

	// Let a few cadences pass against the unchanged families: the watcher
	// ticks, sees the same registry generation, and does no engine work —
	// so no events arrive and nothing is printed.
	time.Sleep(600 * time.Millisecond)

	// Drift: from here on queue_depth drives latency. Ingest alone does not
	// move the registry, so cadences keep skipping while it lands; the
	// rebuild publishes a new generation, the next cadence re-evaluates,
	// and the ranking flip arrives as one update.
	fmt.Println("drifting: queue_depth takes over as the driver ...")
	ingest(c, 360, 400, "queue_depth")
	rebuild(c)
	name, ev = readEvent(rd)
	printEvent(name, ev)

	// The counters tell the efficiency story: many ticks, almost all
	// skipped at the cost of one integer compare, two evaluations total.
	wresp, err := http.Get(ts.URL + "/api/v1/watch/" + info.ID)
	if err != nil {
		log.Fatal(err)
	}
	var wi struct {
		Ticks uint64 `json:"ticks"`
		Skips uint64 `json:"skips"`
		Evals uint64 `json:"evals"`
		Emits uint64 `json:"emits"`
	}
	if err := json.NewDecoder(wresp.Body).Decode(&wi); err != nil {
		log.Fatal(err)
	}
	wresp.Body.Close()
	fmt.Printf("watcher counters: ticks=%d skipped=%d evals=%d emits=%d\n",
		wi.Ticks, wi.Skips, wi.Evals, wi.Emits)

	// DELETE cancels the watcher; the stream ends with a "gone" event.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/watch/"+info.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		log.Fatal(err)
	}
	name, ev = readEvent(rd)
	printEvent(name, ev)
}
