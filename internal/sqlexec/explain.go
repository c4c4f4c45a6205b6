package sqlexec

import (
	"context"
	"fmt"
	"time"

	sp "explainit/internal/sqlparse"
)

// ExplainPlan is the compiled form of an EXPLAIN statement: every clause
// resolved to plain values, ready for the ranking engine. The planner
// (CompileExplain) owns literal resolution — the executor that receives a
// plan never sees the AST.
type ExplainPlan struct {
	// Target is the family to explain.
	Target string
	// Given lists conditioning families (the GIVEN clause), in order.
	Given []string
	// Families restricts the candidate search space (USING FAMILIES); nil
	// means every defined family.
	Families []string
	// From/To bound the range-to-explain (OVER); both zero when absent.
	From, To time.Time
	// Every is the standing-query re-evaluation cadence (EVERY); zero for
	// ordinary one-shot queries. A plan with Every set cannot be executed
	// through the relational machinery — it is the monitor subsystem's
	// input (facade Watch / POST /api/v1/watch).
	Every time.Duration
	// OnAnomaly gates each standing re-evaluation on an anomaly-detection
	// pass over the target (EVERY ... ON ANOMALY).
	OnAnomaly bool
	// Limit bounds the ranking; -1 means no explicit limit.
	Limit int
}

// Standing reports whether the plan is a standing query (EVERY clause).
func (p ExplainPlan) Standing() bool { return p.Every > 0 }

// Explainer executes a compiled ExplainPlan and returns the ranking as a
// relation with the ExplainColumns schema. The facade's client implements
// it over the hypothesis-ranking engine; tests substitute fakes.
type Explainer interface {
	ExplainRelation(ctx context.Context, plan ExplainPlan) (*Relation, error)
}

// ExplainColumns is the schema of the relation an Explainer returns: one
// row per ranked candidate family, rank order.
var ExplainColumns = []string{"rank", "family", "features", "score", "p_value", "viz"}

// NewExplainRelation builds an empty relation with the ExplainColumns
// schema.
func NewExplainRelation() *Relation {
	return NewRelation(ExplainColumns...)
}

// PlanError marks a statement that parsed but cannot be planned (bad time
// literal, empty OVER range). Callers branch on it with errors.As to
// classify the failure as a bad query rather than an execution error.
type PlanError struct{ Msg string }

func (e *PlanError) Error() string { return "sqlexec: " + e.Msg }

func planErrorf(format string, args ...interface{}) error {
	return &PlanError{Msg: fmt.Sprintf(format, args...)}
}

// CompileExplain resolves an EXPLAIN statement's clauses into an
// ExplainPlan: time literals are parsed (RFC3339 strings or unix-second
// numbers) and the OVER range is validated to be non-empty. Failures are
// *PlanError values.
func CompileExplain(stmt *sp.ExplainStmt) (ExplainPlan, error) {
	plan := ExplainPlan{
		Target:   stmt.Target,
		Given:    append([]string(nil), stmt.Given...),
		Families: append([]string(nil), stmt.Families...),
		Limit:    stmt.Limit,
	}
	if stmt.From != nil || stmt.To != nil {
		var err error
		if plan.From, err = resolveTimeLit(stmt.From, "OVER start"); err != nil {
			return ExplainPlan{}, err
		}
		if plan.To, err = resolveTimeLit(stmt.To, "OVER end"); err != nil {
			return ExplainPlan{}, err
		}
		if !plan.To.After(plan.From) {
			return ExplainPlan{}, planErrorf("OVER range is empty: %s TO %s",
				plan.From.Format(time.RFC3339), plan.To.Format(time.RFC3339))
		}
	}
	if stmt.Every != nil {
		every, err := resolveDurLit(stmt.Every)
		if err != nil {
			return ExplainPlan{}, err
		}
		plan.Every = every
		plan.OnAnomaly = stmt.OnAnomaly
	}
	return plan, nil
}

// resolveTimeLit evaluates one OVER bound.
func resolveTimeLit(e sp.Expr, role string) (time.Time, error) {
	switch lit := e.(type) {
	case *sp.StringLit:
		t, err := time.Parse(time.RFC3339, lit.Value)
		if err != nil {
			return time.Time{}, planErrorf("%s %q is not an RFC3339 time", role, lit.Value)
		}
		return t.UTC(), nil
	case *sp.NumberLit:
		sec, frac := int64(lit.Value), lit.Value-float64(int64(lit.Value))
		return time.Unix(sec, int64(frac*1e9)).UTC(), nil
	}
	return time.Time{}, planErrorf("%s is missing", role)
}

// resolveDurLit evaluates the EVERY cadence: Go-duration strings ('30s',
// '1m30s') or bare numbers in seconds. The cadence must be positive.
func resolveDurLit(e sp.Expr) (time.Duration, error) {
	var d time.Duration
	switch lit := e.(type) {
	case *sp.StringLit:
		parsed, err := time.ParseDuration(lit.Value)
		if err != nil {
			return 0, planErrorf("EVERY %q is not a Go duration", lit.Value)
		}
		d = parsed
	case *sp.NumberLit:
		d = time.Duration(lit.Value * float64(time.Second))
	default:
		return 0, planErrorf("EVERY cadence is missing")
	}
	if d <= 0 {
		return 0, planErrorf("EVERY cadence must be positive, got %s", d)
	}
	return d, nil
}
