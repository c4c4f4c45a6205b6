// Command explainit is the operator-facing CLI: load telemetry from CSV or
// JSON-lines into an in-memory store, group it into feature families, and
// rank candidate causes for a target family with the in-process engine.
// For a long-running, durable store served over HTTP, run explainitd.
//
// A typical session (mirroring the paper's three-step workflow):
//
//	expgen -scenario packetdrop > incident.csv
//	explainit -load incident.csv -families          # step 1-2: see the search space
//	explainit -load incident.csv -target runtime_pipeline_0
//	explainit -load incident.csv -target runtime_pipeline_0 -condition input_size
//	explainit -load incident.csv -target runtime_pipeline_0 -scorer corrmax
//
// -sql is the one-shot declarative query mode; for statements that reach
// the ranking engine, families are built first so EXPLAIN ranks directly:
//
//	explainit -load incident.csv -sql "SELECT metric_name, COUNT(*) FROM tsdb GROUP BY metric_name"
//	explainit -load incident.csv -sql "EXPLAIN runtime_pipeline_0 GIVEN input_size LIMIT 10"
//
// -repl starts the interactive search loop (Algorithm 1) over the loaded
// data instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"explainit"
	"explainit/internal/repl"
	"explainit/internal/sqlparse"
)

func main() {
	load := flag.String("load", "", "CSV file to load (timestamp,metric,tags,value); - for stdin")
	jsonl := flag.String("jsonl", "", "JSON-lines file to load")
	groupBy := flag.String("group", "name", `family grouping: "name" or "tag:<key>"`)
	target := flag.String("target", "", "target family to explain")
	condition := flag.String("condition", "", "comma-separated families to condition on")
	pseudo := flag.Bool("pseudocause", false, "condition on the target's own seasonality (§3.4)")
	scorer := flag.String("scorer", "l2", "scorer: corrmean, corrmax, l2, l2-p50, l2-p500, l1")
	topK := flag.Int("topk", 20, "number of results to show")
	step := flag.Duration("step", time.Minute, "alignment step")
	families := flag.Bool("families", false, "list feature families and exit")
	sql := flag.String("sql", "", "run a SQL query against the tsdb table and exit")
	seed := flag.Int64("seed", 1, "seed for projection scorers")
	replMode := flag.Bool("repl", false, "start the interactive search loop (Algorithm 1)")
	flag.Parse()

	c := explainit.New()
	if err := ingest(c, *load, *jsonl); err != nil {
		fatal(err)
	}
	if *replMode {
		session := repl.New(c, os.Stdout)
		if c.NumSeries() > 0 {
			// Pre-loaded data: build the default families up front so the
			// operator can set a target immediately.
			if err := session.Execute("families"); err != nil {
				fatal(err)
			}
		}
		if err := session.Run(os.Stdin); err != nil {
			fatal(err)
		}
		return
	}
	if c.NumSeries() == 0 {
		fatal(fmt.Errorf("no data loaded; use -load or -jsonl"))
	}

	from, to, _ := c.Bounds()
	if *sql != "" {
		// One-shot query mode. Families are built only when the statement
		// reaches the ranking engine, so a plain SELECT runs as cheaply as
		// before.
		stmt, err := sqlparse.ParseStatement(*sql)
		if err != nil {
			fatal(err)
		}
		if sqlparse.HasExplain(stmt) {
			if _, err := c.BuildFamilies(*groupBy, from, to, *step); err != nil {
				fatal(err)
			}
		}
		res, err := c.Query(context.Background(), *sql)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		return
	}

	infos, err := c.BuildFamilies(*groupBy, from, to, *step)
	if err != nil {
		fatal(err)
	}
	if *families || *target == "" {
		fmt.Printf("%-40s %8s %8s\n", "family", "features", "rows")
		for _, fi := range infos {
			fmt.Printf("%-40s %8d %8d\n", fi.Name, fi.Features, fi.Rows)
		}
		if *target == "" {
			fmt.Println("\nuse -target <family> to rank candidate causes")
		}
		return
	}

	opts := explainit.ExplainOptions{
		Target:      *target,
		Scorer:      explainit.ScorerName(*scorer),
		TopK:        *topK,
		Pseudocause: *pseudo,
		Seed:        *seed,
	}
	if *condition != "" {
		opts.Condition = strings.Split(*condition, ",")
	}
	ranking, err := c.Explain(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Print(ranking.String())
	if len(ranking.Skipped) > 0 {
		fmt.Printf("\nskipped: %s\n", strings.Join(ranking.Skipped, ", "))
	}
}

func ingest(c *explainit.Client, csvPath, jsonlPath string) error {
	if csvPath != "" {
		r := os.Stdin
		if csvPath != "-" {
			f, err := os.Open(csvPath)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		if _, err := c.LoadCSV(r); err != nil {
			return err
		}
	}
	if jsonlPath != "" {
		f, err := os.Open(jsonlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := c.LoadJSONL(f); err != nil {
			return err
		}
	}
	return nil
}

func printResult(res *explainit.Result) {
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case nil:
				parts[i] = "NULL"
			case time.Time:
				parts[i] = x.Format(time.RFC3339)
			case float64:
				parts[i] = fmt.Sprintf("%g", x)
			default:
				parts[i] = fmt.Sprintf("%v", x)
			}
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explainit:", err)
	os.Exit(1)
}
