package sqlexec

import (
	"math"
	"testing"
	"testing/quick"
)

func windowCatalog() *MemCatalog {
	cat := NewMemCatalog()
	r := NewRelation("v")
	for i := 1; i <= 6; i++ {
		_ = r.AddRow(Number(float64(i * i))) // 1 4 9 16 25 36
	}
	cat.Register("t", r)
	return cat
}

func TestMovAvg(t *testing.T) {
	cat := windowCatalog()
	rel := mustRun(t, cat, `SELECT v, MOVAVG(v, 3) AS m FROM t`)
	// Row 0: avg(1)=1; row 2: avg(1,4,9)=14/3; row 5: avg(16,25,36)=77/3.
	if rel.Rows[0][1].F != 1 {
		t.Fatalf("row0 %v", rel.Rows[0])
	}
	if math.Abs(rel.Rows[2][1].F-14.0/3.0) > 1e-12 {
		t.Fatalf("row2 %v", rel.Rows[2])
	}
	if math.Abs(rel.Rows[5][1].F-77.0/3.0) > 1e-12 {
		t.Fatalf("row5 %v", rel.Rows[5])
	}
}

func TestMovAvgErrors(t *testing.T) {
	cat := windowCatalog()
	for _, q := range []string{
		`SELECT MOVAVG(v) FROM t`,
		`SELECT MOVAVG(v, 0) FROM t`,
	} {
		if _, err := runSQL(q, cat); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

func TestDelta(t *testing.T) {
	cat := windowCatalog()
	rel := mustRun(t, cat, `SELECT DELTA(v) AS d FROM t`)
	if !rel.Rows[0][0].IsNull() {
		t.Fatal("first delta must be NULL")
	}
	want := []float64{3, 5, 7, 9, 11} // differences of squares
	for i, w := range want {
		if rel.Rows[i+1][0].F != w {
			t.Fatalf("delta[%d] = %v want %g", i+1, rel.Rows[i+1][0], w)
		}
	}
	if _, err := runSQL(`SELECT DELTA(v, 2) FROM t`, cat); err == nil {
		t.Fatal("arity error expected")
	}
}

func TestMovAvgWindowOneIsIdentity(t *testing.T) {
	cat := windowCatalog()
	rel := mustRun(t, cat, `SELECT v, MOVAVG(v, 1) FROM t`)
	for _, row := range rel.Rows {
		if row[0].F != row[1].F {
			t.Fatalf("window-1 moving average must be identity: %v", row)
		}
	}
}

// Property tests for the Value ordering: Compare must be a total preorder
// consistent with Equal, and dedup must be idempotent.

func TestCompareProperties(t *testing.T) {
	gen := func(seed int64) Value {
		switch seed % 4 {
		case 0:
			return Number(float64(seed%97) / 3)
		case 1:
			return Str(string(rune('a' + seed%26)))
		case 2:
			return Null()
		default:
			return Number(-float64(seed % 13))
		}
	}
	antisym := func(a, b int64) bool {
		va, vb := gen(a), gen(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Fatal(err)
	}
	trans := func(a, b, c int64) bool {
		va, vb, vc := gen(a), gen(b), gen(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Fatal(err)
	}
	reflexive := func(a int64) bool {
		v := gen(a)
		return Compare(v, v) == 0
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDedupIdempotent: DISTINCT and UNION keep the first of each
// duplicate row in input order, and deduplicating again changes nothing.
func TestDedupIdempotent(t *testing.T) {
	r := NewRelation("a", "b")
	vals := []float64{1, 2, 1, 3, 2, 1}
	for _, v := range vals {
		_ = r.AddRow(Number(v), Number(v*2))
	}
	cat := NewMemCatalog()
	cat.Register("r", r)
	once := mustRun(t, cat, `SELECT DISTINCT a, b FROM r`)
	if once.NumRows() != 3 || once.Rows[0][0].F != 1 || once.Rows[1][0].F != 2 || once.Rows[2][0].F != 3 {
		t.Fatalf("DISTINCT kept %v", once)
	}
	for _, q := range []string{
		`SELECT DISTINCT a, b FROM (SELECT DISTINCT a, b FROM r) x`,
		`SELECT a, b FROM r UNION SELECT a, b FROM r`,
		`SELECT DISTINCT a, b FROM (SELECT a, b FROM r UNION SELECT a, b FROM r) x`,
	} {
		if again := mustRun(t, cat, q); !sameRelationBits(once, again) {
			t.Errorf("%q:\n%v\nwant\n%v", q, again, once)
		}
	}
}

func TestValueKeyDistinguishes(t *testing.T) {
	pairs := [][2]Value{
		{Number(1), Str("1")},
		{Null(), Str("")},
		{Number(0), Null()},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Fatalf("keys must differ: %v vs %v", p[0], p[1])
		}
	}
	if Number(2).Key() != Number(2.0).Key() {
		t.Fatal("equal numbers must share a key")
	}
}
