package explainit

import (
	"context"
	"errors"
	"fmt"

	"explainit/internal/core"
	"explainit/internal/obs"
	"explainit/internal/sqlexec"
	"explainit/internal/sqlparse"
)

// Query runs one SQL statement against the client and returns the result
// for inspection. SELECT statements read the store's "tsdb" table
// (timestamp, metric_name, tag, value); EXPLAIN statements compile into
// the ranking engine —
//
//	EXPLAIN runtime_pipeline_0 GIVEN input_size LIMIT 10
//
// returns the same ranking as the equivalent Explain call, as a relation
// (rank, family, features, score, p_value, viz), and composes with the
// SELECT machinery via FROM (EXPLAIN ...). SQL LIMIT semantics apply: a
// statement without LIMIT returns the full ranking, not the engine's
// default top-20. An EXPLAIN, top-level or embedded in FROM, runs the
// ranking path Explain runs, so it shares cached rankings with every
// surface that declares the same computation (a watch tick of the same
// statement, the same EXPLAIN at another LIMIT); the statement counts as
// one query request however many rankings it runs.
// The context cancels a running ranking. Result values are float64,
// string, time.Time, or nil for SQL NULL; statement errors wrap ErrBadSQL,
// unknown names ErrUnknownFamily.
func (c *Client) Query(ctx context.Context, query string) (*Result, error) {
	defer c.noteRequest(metQueryReqs, c.now())
	_, endParse := obs.StartSpan(ctx, "parse")
	stmt, err := sqlparse.ParseStatement(query)
	endParse()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSQL, err)
	}
	cat := &tsdbCatalog{client: c, ctx: ctx}
	_, endPlan := obs.StartSpan(ctx, "plan")
	plan, err := c.planFor(query, stmt, cat)
	endPlan()
	var rel *sqlexec.Relation
	if err == nil {
		rel, err = sqlexec.ExecutePlan(ctx, plan, cat, clientExplainer{c})
	}
	if err != nil {
		// A statement that parsed but cannot be planned is still a bad
		// query, same as a syntax error.
		var perr *sqlexec.PlanError
		if errors.As(err, &perr) {
			return nil, fmt.Errorf("%w: %w", ErrBadSQL, err)
		}
		return nil, err
	}
	res := &Result{Columns: append([]string{}, rel.Cols...)}
	for _, row := range rel.Rows {
		out := make([]interface{}, len(row))
		for i, v := range row {
			switch v.Kind {
			case sqlexec.KNull:
				out[i] = nil
			case sqlexec.KNumber:
				out[i] = v.F
			case sqlexec.KTime:
				out[i] = v.T
			default:
				out[i] = v.AsString()
			}
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// QueryStream executes a SQL EXPLAIN statement with progressive delivery:
// scored candidates arrive as RankUpdate events while workers finish, then
// a terminal event carries the completed ranking — identical to what Query
// returns for the same statement. Only EXPLAIN statements stream; a SELECT
// fails with ErrBadSQL. As with ExplainStream, the channel is buffered for
// the whole ranking, so abandoning it leaks nothing; cancel ctx to stop
// the scoring itself.
func (c *Client) QueryStream(ctx context.Context, query string) (<-chan RankUpdate, error) {
	start := c.now()
	done := func(*Ranking, *core.CondState, error) { c.noteRequest(metQueryStreamReqs, start) }
	plan, err := compileStreaming(ctx, query)
	if err != nil {
		done(nil, nil, err)
		return nil, err
	}
	return c.rankStream(ctx, planSpec(plan), nil, done)
}

// compileStreaming compiles a one-shot EXPLAIN statement for QueryStream.
func compileStreaming(ctx context.Context, query string) (sqlexec.ExplainPlan, error) {
	_, endParse := obs.StartSpan(ctx, "parse")
	stmt, err := sqlparse.ParseStatement(query)
	endParse()
	if err != nil {
		return sqlexec.ExplainPlan{}, fmt.Errorf("%w: %w", ErrBadSQL, err)
	}
	ex, ok := stmt.(*sqlparse.ExplainStmt)
	if !ok {
		return sqlexec.ExplainPlan{}, fmt.Errorf("%w: only EXPLAIN statements stream", ErrBadSQL)
	}
	_, endPlan := obs.StartSpan(ctx, "plan")
	plan, err := sqlexec.CompileExplain(ex)
	endPlan()
	if err != nil {
		return sqlexec.ExplainPlan{}, fmt.Errorf("%w: %w", ErrBadSQL, err)
	}
	if plan.Standing() {
		return sqlexec.ExplainPlan{}, fmt.Errorf("%w: standing query (EVERY) cannot stream once; use Watch", ErrBadSQL)
	}
	return plan, nil
}

// clientExplainer adapts the client to the executor's Explainer interface,
// so EXPLAIN statements (top-level or embedded in FROM) dispatch into the
// ranking engine.
type clientExplainer struct{ c *Client }

// ExplainRelation implements sqlexec.Explainer: it runs the plan through
// the one ranking path and renders the ranking as the EXPLAIN relation.
func (e clientExplainer) ExplainRelation(ctx context.Context, plan sqlexec.ExplainPlan) (*sqlexec.Relation, error) {
	ranking, _, err := e.c.rank(ctx, planSpec(plan), nil, nil)
	if err != nil {
		return nil, err
	}
	rel := sqlexec.NewExplainRelation()
	for _, row := range ranking.Rows {
		rel.Rows = append(rel.Rows, []sqlexec.Value{
			sqlexec.Number(float64(row.Rank)),
			sqlexec.Str(row.Family),
			sqlexec.Number(float64(row.Features)),
			sqlexec.Number(row.Score),
			sqlexec.Number(row.PValue),
			sqlexec.Str(row.Viz),
		})
	}
	return rel, nil
}

// planSpec declares the ranking a compiled EXPLAIN asks for. GIVEN
// conditions in clause order, exactly as ExplainOptions.Condition does, so
// a SQL ranking is the Explain ranking by construction. With SQL semantics
// the engine ranks at TopK = the registry size instead of its default
// top-20 (it sorts the complete candidate set before cutting, so the top-k
// of that ranking is the ranking computed at TopK=k) and LIMIT trims the
// result. The cache key therefore does not depend on LIMIT: one entry
// serves the same EXPLAIN at every LIMIT.
func planSpec(plan sqlexec.ExplainPlan) rankSpec {
	return rankSpec{ExplainOptions: ExplainOptions{
		Target:      plan.Target,
		Condition:   plan.Given,
		SearchSpace: plan.Families,
		ExplainFrom: plan.From,
		ExplainTo:   plan.To,
	}, sql: true, limit: plan.Limit}
}
