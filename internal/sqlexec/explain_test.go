package sqlexec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	sp "explainit/internal/sqlparse"
)

// fakeExplainer records the plans it receives and returns a canned ranking.
type fakeExplainer struct {
	plans []ExplainPlan
	rows  [][]Value
	err   error
}

func (f *fakeExplainer) ExplainRelation(ctx context.Context, plan ExplainPlan) (*Relation, error) {
	f.plans = append(f.plans, plan)
	if f.err != nil {
		return nil, f.err
	}
	rel := NewExplainRelation()
	rel.Rows = append(rel.Rows, f.rows...)
	return rel, nil
}

func rankedRow(rank int, family string, score float64) []Value {
	return []Value{Number(float64(rank)), Str(family), Number(4), Number(score), Number(0.01), Str("▁▂▃")}
}

func TestCompileExplain(t *testing.T) {
	stmt, err := sp.ParseStatement(
		"EXPLAIN t GIVEN a, b USING FAMILIES (x) OVER '2026-01-01T00:00:00Z' TO 1767312000 LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileExplain(stmt.(*sp.ExplainStmt))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Target != "t" || len(plan.Given) != 2 || len(plan.Families) != 1 || plan.Limit != 7 {
		t.Fatalf("plan %+v", plan)
	}
	wantFrom := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	if !plan.From.Equal(wantFrom) {
		t.Fatalf("from %v", plan.From)
	}
	if !plan.To.Equal(time.Unix(1767312000, 0).UTC()) {
		t.Fatalf("to %v", plan.To)
	}

	// Planner failures are typed PlanErrors.
	for _, q := range []string{
		"EXPLAIN t OVER 'nope' TO 'also nope'",
		"EXPLAIN t OVER 200 TO 100", // empty range
		"EXPLAIN t OVER 100 TO 100",
	} {
		stmt, err := sp.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		_, err = CompileExplain(stmt.(*sp.ExplainStmt))
		var perr *PlanError
		if !errors.As(err, &perr) {
			t.Fatalf("%q: want PlanError, got %v", q, err)
		}
	}
}

func TestExecuteStatementDispatchesExplain(t *testing.T) {
	fake := &fakeExplainer{rows: [][]Value{
		rankedRow(1, "disk_io", 0.9),
		rankedRow(2, "cpu", 0.4),
	}}
	rel, err := RunStatement(context.Background(), "EXPLAIN t GIVEN c LIMIT 5", NewMemCatalog(), fake)
	if err != nil {
		t.Fatal(err)
	}
	if len(fake.plans) != 1 || fake.plans[0].Target != "t" || fake.plans[0].Limit != 5 {
		t.Fatalf("plans %+v", fake.plans)
	}
	if rel.NumRows() != 2 || rel.Cols[0] != "rank" {
		t.Fatalf("relation %v", rel)
	}

	// Top-level SELECT still executes against the catalog.
	cat := NewMemCatalog()
	tbl := NewRelation("v")
	_ = tbl.AddRow(Number(3))
	cat.Register("t", tbl)
	rel, err = RunStatement(context.Background(), "SELECT v FROM t", cat, fake)
	if err != nil || rel.NumRows() != 1 {
		t.Fatalf("select: %v %v", rel, err)
	}
}

func TestExplainComposesWithSelect(t *testing.T) {
	fake := &fakeExplainer{rows: [][]Value{
		rankedRow(1, "disk_io", 0.9),
		rankedRow(2, "cpu", 0.4),
		rankedRow(3, "noise", 0.1),
	}}
	rel, err := RunStatement(context.Background(),
		"SELECT family, score FROM (EXPLAIN t) r WHERE score > 0.3 ORDER BY score ASC",
		NewMemCatalog(), fake)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 || rel.NumCols() != 2 {
		t.Fatalf("composed relation %v", rel)
	}
	if rel.Rows[0][0].AsString() != "cpu" || rel.Rows[1][0].AsString() != "disk_io" {
		t.Fatalf("composed rows %v", rel.Rows)
	}
	// The alias qualifies the ranking's columns.
	rel, err = RunStatement(context.Background(),
		"SELECT r.family FROM (EXPLAIN t) r LIMIT 1", NewMemCatalog(), fake)
	if err != nil || rel.NumRows() != 1 {
		t.Fatalf("qualified: %v %v", rel, err)
	}
}

func TestExplainWithoutExplainerFails(t *testing.T) {
	for _, q := range []string{
		"EXPLAIN t",
		"SELECT family FROM (EXPLAIN t) r",
	} {
		stmt, err := sp.ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ExecuteStatement(context.Background(), stmt, NewMemCatalog(), nil); err == nil ||
			!strings.Contains(err.Error(), "Explainer") {
			t.Fatalf("%q without explainer: %v", q, err)
		}
	}
	// The legacy executor rejects embedded EXPLAIN the same way.
	stmt, err := sp.Parse("SELECT family FROM (EXPLAIN t) r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteStatementLegacy(context.Background(), stmt, NewMemCatalog(), nil); err == nil {
		t.Fatal("the legacy executor must reject embedded EXPLAIN without an engine")
	}
}

func TestExplainerErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	fake := &fakeExplainer{err: sentinel}
	if _, err := RunStatement(context.Background(), "EXPLAIN t", NewMemCatalog(), fake); !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, err := RunStatement(context.Background(), "SELECT * FROM (EXPLAIN t) r", NewMemCatalog(), fake); !errors.Is(err, sentinel) {
		t.Fatalf("embedded error not propagated: %v", err)
	}
}

func TestCompileExplainEvery(t *testing.T) {
	stmt, err := sp.ParseStatement("EXPLAIN t GIVEN a EVERY '1m30s' ON ANOMALY LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileExplain(stmt.(*sp.ExplainStmt))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Every != 90*time.Second || !plan.OnAnomaly || !plan.Standing() {
		t.Fatalf("plan %+v", plan)
	}

	stmt, err = sp.ParseStatement("EXPLAIN t EVERY 2.5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err = CompileExplain(stmt.(*sp.ExplainStmt))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Every != 2500*time.Millisecond || plan.OnAnomaly {
		t.Fatalf("plan %+v", plan)
	}

	for _, q := range []string{
		"EXPLAIN t EVERY 'not a duration'",
		"EXPLAIN t EVERY 0",
		"EXPLAIN t EVERY '-5s'",
	} {
		stmt, err := sp.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		_, err = CompileExplain(stmt.(*sp.ExplainStmt))
		var perr *PlanError
		if !errors.As(err, &perr) {
			t.Fatalf("%q: want PlanError, got %v", q, err)
		}
	}
}

func TestStandingQueryRejectedRelationally(t *testing.T) {
	for _, q := range []string{
		"EXPLAIN t EVERY '30s'",
		"SELECT family FROM (EXPLAIN t EVERY '30s') r",
	} {
		_, err := RunStatement(context.Background(), q, nil, &fakeExplainer{})
		var perr *PlanError
		if !errors.As(err, &perr) {
			t.Fatalf("%q: want PlanError, got %v", q, err)
		}
		if !strings.Contains(err.Error(), "standing query") {
			t.Fatalf("%q: error %v does not mention standing query", q, err)
		}
	}
}
