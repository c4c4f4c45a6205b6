package sqlexec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// Relation is a materialised table: column names (with optional qualifiers)
// and rows of values.
type Relation struct {
	Cols  []string // base column names
	Quals []string // per-column qualifier ("" when none); len == len(Cols)
	Rows  [][]Value
}

// NewRelation builds an empty relation with unqualified columns.
func NewRelation(cols ...string) *Relation {
	return &Relation{Cols: cols, Quals: make([]string, len(cols))}
}

// NumCols returns the column count.
func (r *Relation) NumCols() int { return len(r.Cols) }

// NumRows returns the row count.
func (r *Relation) NumRows() int { return len(r.Rows) }

// AddRow appends a row (must match the column count).
func (r *Relation) AddRow(vals ...Value) error {
	if len(vals) != len(r.Cols) {
		return fmt.Errorf("sqlexec: row has %d values, relation has %d columns", len(vals), len(r.Cols))
	}
	r.Rows = append(r.Rows, vals)
	return nil
}

// ColumnIndex resolves a column reference. A qualified lookup ("q", "c")
// requires both to match; an unqualified lookup ("", "c") matches the first
// column with that name. Returns -1 when not found.
func (r *Relation) ColumnIndex(qual, name string) int {
	for i, c := range r.Cols {
		if !strings.EqualFold(c, name) {
			continue
		}
		if qual == "" || strings.EqualFold(r.Quals[i], qual) {
			return i
		}
	}
	return -1
}

// WithQualifier returns a shallow copy whose every column carries the given
// qualifier (used when a table or subquery is aliased in FROM).
func (r *Relation) WithQualifier(qual string) *Relation {
	quals := make([]string, len(r.Cols))
	for i := range quals {
		quals[i] = qual
	}
	return &Relation{Cols: r.Cols, Quals: quals, Rows: r.Rows}
}

// String renders a bounded preview of the relation for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Relation(%d cols, %d rows)", len(r.Cols), len(r.Rows))
	if len(r.Rows) > 6 || len(r.Cols) > 8 {
		return b.String()
	}
	b.WriteString("\n  " + strings.Join(r.Cols, " | "))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		b.WriteString("\n  " + strings.Join(parts, " | "))
	}
	return b.String()
}

// Catalog resolves table names to relations.
type Catalog interface {
	// Table returns the named relation or an error.
	Table(name string) (*Relation, error)
}

// MemCatalog is a map-backed catalog. Table names are case-insensitive.
type MemCatalog struct {
	tables map[string]*Relation
}

// NewMemCatalog builds an empty catalog.
func NewMemCatalog() *MemCatalog {
	return &MemCatalog{tables: make(map[string]*Relation)}
}

// Register adds or replaces a named relation.
func (c *MemCatalog) Register(name string, rel *Relation) {
	c.tables[strings.ToLower(name)] = rel
}

// Table implements Catalog.
func (c *MemCatalog) Table(name string) (*Relation, error) {
	rel, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlexec: unknown table %q", name)
	}
	return rel, nil
}

// TSDBRelation materialises a tsdb query result as the standard four-column
// relation the paper's Listing-1 queries expect:
//
//	timestamp (time), metric_name (string), tag (map), value (number)
func TSDBRelation(db *tsdb.DB, q tsdb.Query) (*Relation, error) {
	return TSDBRelationContext(context.Background(), db, q)
}

// TSDBRelationContext is TSDBRelation under a caller context, so the shard
// fan-out underneath observes cancellation and records trace spans for
// traced requests.
func TSDBRelationContext(ctx context.Context, db *tsdb.DB, q tsdb.Query) (*Relation, error) {
	series, err := db.RunContext(ctx, q)
	if err != nil {
		return nil, err
	}
	rel := NewRelation("timestamp", "metric_name", "tag", "value")
	for _, s := range series {
		tags := map[string]string(s.Tags.Clone())
		for _, smp := range s.Samples {
			rel.Rows = append(rel.Rows, []Value{
				TimeVal(smp.TS),
				Str(s.Name),
				MapVal(tags),
				Number(smp.Value),
			})
		}
	}
	return rel, nil
}

// RegisterTSDB registers the full contents of db under the given table name
// (conventionally "tsdb").
func (c *MemCatalog) RegisterTSDB(name string, db *tsdb.DB) error {
	rel, err := TSDBRelation(db, tsdb.Query{})
	if err != nil {
		return err
	}
	c.Register(name, rel)
	return nil
}

// SeriesRelation converts a set of series into a relation with one row per
// sample, like TSDBRelation but without a database.
func SeriesRelation(series []*ts.Series) *Relation {
	rel := NewRelation("timestamp", "metric_name", "tag", "value")
	for _, s := range series {
		tags := map[string]string(s.Tags.Clone())
		for _, smp := range s.Samples {
			rel.Rows = append(rel.Rows, []Value{
				TimeVal(smp.TS),
				Str(s.Name),
				MapVal(tags),
				Number(smp.Value),
			})
		}
	}
	return rel
}

// TimeColumn extracts the named column as time values; non-time values are
// coerced from unix seconds where possible.
func (r *Relation) TimeColumn(name string) ([]time.Time, error) {
	idx := r.ColumnIndex("", name)
	if idx < 0 {
		return nil, fmt.Errorf("sqlexec: no column %q", name)
	}
	out := make([]time.Time, len(r.Rows))
	for i, row := range r.Rows {
		v := row[idx]
		switch v.Kind {
		case KTime:
			out[i] = v.T
		case KNumber:
			out[i] = time.Unix(int64(v.F), 0).UTC()
		default:
			return nil, fmt.Errorf("sqlexec: row %d: column %q is not a time", i, name)
		}
	}
	return out, nil
}

// FloatColumn extracts the named column as float64s (NULL becomes NaN).
func (r *Relation) FloatColumn(name string) ([]float64, error) {
	idx := r.ColumnIndex("", name)
	if idx < 0 {
		return nil, fmt.Errorf("sqlexec: no column %q", name)
	}
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		v := row[idx]
		if v.IsNull() {
			out[i] = math.NaN()
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			return nil, fmt.Errorf("sqlexec: row %d: column %q is not numeric", i, name)
		}
		out[i] = f
	}
	return out, nil
}
