package sqlexec

import (
	"bytes"
	"encoding/json"

	sp "explainit/internal/sqlparse"
)

// Physical plan representation. A Plan is a tree of PlanNodes; the exported
// (JSON-tagged) fields are the stable, test-pinned serialization that
// EXPLAIN PLAN returns, and the unexported payloads carry everything the
// iterator executor needs, so execution never re-derives anything from the
// AST shape. Payload expressions are compiled closures (compile.go) bound
// to row slots — plans hold no mutable state and one planned statement may
// execute many times, concurrently, against the same catalog.

// Operator names (the "op" JSON field).
const (
	opValues      = "values"
	opScan        = "scan"
	opFilter      = "filter"
	opProject     = "project"
	opAggregate   = "aggregate"
	opDistinct    = "distinct"
	opSort        = "sort"
	opTopK        = "topk"
	opLimit       = "limit"
	opHashJoin    = "hash_join"
	opNestedJoin  = "nested_loop_join"
	opUnion       = "union"
	opExplain     = "explain"
	opExplainPlan = "explain_plan"
)

// Operator modes: a streaming operator holds O(1)–O(groups) state and pulls
// one row at a time; a buffered operator materializes its input and runs
// the legacy relational code (required whenever window functions need the
// whole input and its pre-filter row indexes).
const (
	modeStreaming = "streaming"
	modeBuffered  = "buffered"
)

// PlanNode is one physical operator. Field order is the serialization
// order planner tests pin.
type PlanNode struct {
	Op         string      `json:"op"`
	Table      string      `json:"table,omitempty"`
	Alias      string      `json:"alias,omitempty"`
	Pushdown   *ScanSpec   `json:"pushdown,omitempty"`
	EstRows    *int        `json:"est_rows,omitempty"`
	CSE        string      `json:"cse,omitempty"`
	Mode       string      `json:"mode,omitempty"`
	Predicate  string      `json:"predicate,omitempty"`
	Columns    []string    `json:"columns,omitempty"`
	GroupBy    []string    `json:"group_by,omitempty"`
	Aggregates []string    `json:"aggregates,omitempty"`
	JoinType   string      `json:"join_type,omitempty"`
	JoinKeys   []string    `json:"join_keys,omitempty"`
	BuildSide  string      `json:"build_side,omitempty"`
	OrderBy    []string    `json:"order_by,omitempty"`
	Limit      *int        `json:"limit,omitempty"`
	UnionAll   bool        `json:"union_all,omitempty"`
	Explain    string      `json:"explain,omitempty"`
	Children   []*PlanNode `json:"children,omitempty"`

	// schema is the node's output schema (columns and qualifiers, no rows).
	schema *Relation

	// Per-operator execution payloads; exactly one is set, matching Op.
	scan    *scanOp
	filter  *filterOp
	proj    *projectOp
	agg     *aggOp
	dedup   *distinctOp
	sorter  *sortOp
	topk    *topkOp
	limiter *limitOp
	join    *joinOp
	union   *unionOp
	expl    *explainOp
	explPl  *explainPlanOp
}

// Plan is a planned statement, ready for ExecutePlan.
type Plan struct {
	Root *PlanNode
}

// JSON renders the physical plan as indented, deterministic JSON — the
// payload of EXPLAIN PLAN and the representation planner tests pin. HTML
// escaping is off so predicates render readably (">=" not ">=").
func (p *Plan) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.Root); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

type scanOp struct {
	table string
	qual  string    // alias if given, else the table name
	spec  *ScanSpec // nil: full materialization via Catalog.Table
	key   string    // shared-scan cache key (excludes the qualifier)
}

type filterOp struct {
	pred      exprFn
	streaming bool
}

type projectOp struct {
	items     []projItem
	streaming bool
}

type aggOp struct {
	g         *grouping
	streaming bool
}

type distinctOp struct{}

type sortOp struct {
	keys []orderKey
	// distinctUpstream replicates a legacy quirk: after DISTINCT removed
	// every row, the src slice is nil and an input-resolved ORDER BY key
	// errors instead of ordering nothing.
	distinctUpstream bool
}

type topkOp struct {
	keys             []orderKey
	k                int
	distinctUpstream bool
}

type limitOp struct {
	n int
}

type joinOp struct {
	join         *sp.Join
	lkeys, rkeys []exprFn  // equi-join keys per side; nil for nested loop
	on           exprFn    // nested loop: ON over the joined schema
	buildLeft    bool      // reverse hash join (INNER only): build on the smaller left
	left, right  *Relation // child schemas (qualified)
}

type unionOp struct {
	all bool
}

type explainOp struct {
	stmt *sp.ExplainStmt
	key  string
}

type explainPlanOp struct {
	inner *Plan
}

// schemaOnly returns a rowless copy of a relation's shape.
func schemaOnly(r *Relation) *Relation {
	return &Relation{Cols: r.Cols, Quals: r.Quals}
}
