package experiments

import (
	"strings"
	"testing"
)

func TestAllRunnersRegistered(t *testing.T) {
	runners := All()
	if len(runners) != 15 {
		t.Fatalf("runner count %d", len(runners))
	}
	if _, ok := Find("table6"); !ok {
		t.Fatal("find table6")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("find nope")
	}
}

func TestTable2Shape(t *testing.T) {
	rep := report(t, Table2)
	// Univariate scoring must be the cheapest method at the largest size.
	if rep.Metrics["corrmean_ms"] >= rep.Metrics["l2_ms"] {
		t.Fatalf("CorrMean %.2fms should undercut L2 %.2fms",
			rep.Metrics["corrmean_ms"], rep.Metrics["l2_ms"])
	}
	// Projection must not be slower than the full joint regression at
	// nx = 640 >> d = 50.
	if rep.Metrics["l2p50_ms"] > rep.Metrics["l2_ms"]*1.5 {
		t.Fatalf("L2-P50 %.2fms should not exceed L2 %.2fms",
			rep.Metrics["l2p50_ms"], rep.Metrics["l2_ms"])
	}
}

func TestTable3FaultInjectionShape(t *testing.T) {
	rep := report(t, Table3)
	// The paper found the cause (TCP retransmits) at rank 4 with expected
	// effect families (runtimes/latencies of other pipelines) around it at
	// ranks 1-3, 5, 7. The shape to hold: the cause lands in the top
	// handful, behind only expected effects.
	if r := rep.Metrics["cause_rank"]; r == 0 || r > 8 {
		t.Fatalf("first cause rank %v, want 1..8\n%s", r, rep)
	}
	if r := rep.Metrics["retransmits_rank"]; r == 0 || r > 10 {
		t.Fatalf("retransmits rank %v\n%s", r, rep)
	}
}

func TestTable4NamenodeShape(t *testing.T) {
	rep := report(t, Table4)
	if r := rep.Metrics["cause_rank"]; r == 0 || r > 10 {
		t.Fatalf("cause rank %v\n%s", r, rep)
	}
	if rep.Metrics["gc_corr"] >= 0 {
		t.Fatalf("gc correlation %v should be negative", rep.Metrics["gc_corr"])
	}
	if rep.Metrics["threads_corr"] <= 0 {
		t.Fatalf("threads correlation %v should be positive", rep.Metrics["threads_corr"])
	}
}

func TestTable5RAIDShape(t *testing.T) {
	rep := report(t, Table5)
	if r := rep.Metrics["cause_rank"]; r == 0 || r > 10 {
		t.Fatalf("cause rank %v\n%s", r, rep)
	}
	if r := rep.Metrics["disk_rank"]; r == 0 || r > 20 {
		t.Fatalf("disk utilisation rank %v\n%s", r, rep)
	}
}

func TestFigure5Shape(t *testing.T) {
	rep := report(t, Figure5)
	if rep.Metrics["fault_mean"] <= rep.Metrics["quiet_mean"] {
		t.Fatalf("fault must raise runtime: %+v", rep.Metrics)
	}
	if !strings.Contains(rep.String(), "*") {
		t.Fatal("timeline missing")
	}
}

func TestFigure6Shape(t *testing.T) {
	rep := report(t, Figure6)
	imp := rep.Metrics["improvement"]
	if imp <= 0.02 || imp >= 0.5 {
		t.Fatalf("fix improvement %v out of the paper's ballpark", imp)
	}
}

func TestFigure7Shape(t *testing.T) {
	rep := report(t, Figure7)
	pb, pa := rep.Metrics["period_before"], rep.Metrics["period_after"]
	if pb < 13 || pb > 17 {
		t.Fatalf("period before %v, want ~15", pb)
	}
	if pa >= 13 && pa <= 17 {
		t.Fatalf("period after fix should vanish, got %v", pa)
	}
}

func TestFigure8Shape(t *testing.T) {
	rep := report(t, Figure8)
	period, week := rep.Metrics["detected_period"], rep.Metrics["week"]
	if period < week*0.85 || period > week*1.15 {
		t.Fatalf("weekly period %v vs week %v", period, week)
	}
}

func TestFigure9Shape(t *testing.T) {
	rep := report(t, Figure9)
	if rep.Metrics["var_disabled"] >= rep.Metrics["var_default"] {
		t.Fatalf("disabling the check must cut variance: %+v", rep.Metrics)
	}
	if rep.Metrics["var_reduced"] >= rep.Metrics["var_default"] {
		t.Fatalf("reducing the check must cut variance: %+v", rep.Metrics)
	}
}

func TestFigure12Shape(t *testing.T) {
	rep := report(t, Figure12)
	// Plain r2 concentrates near the Beta mean (~0.5); adjusted near 0.
	if rep.Metrics["raw_mean"] < 0.4 || rep.Metrics["raw_mean"] > 0.6 {
		t.Fatalf("raw mean %v, want ~%v", rep.Metrics["raw_mean"], rep.Metrics["theory_mean"])
	}
	if abs(rep.Metrics["adj_mean"]) > 0.1 {
		t.Fatalf("adjusted mean %v, want ~0", rep.Metrics["adj_mean"])
	}
}

func TestFigure13Shape(t *testing.T) {
	rep := report(t, Figure13)
	if rep.Metrics["small_lambda_mean"] < 0.3 {
		t.Fatalf("small-lambda ridge should overfit: %v", rep.Metrics["small_lambda_mean"])
	}
	if rep.Metrics["cv_mean"] > 0.1 {
		t.Fatalf("CV-selected ridge should concentrate at 0: %v", rep.Metrics["cv_mean"])
	}
}

func TestTable6AndFigure10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("table6 sweep is expensive")
	}
	rep := report(t, func() (*Report, error) { return Table6(0.5) })
	// The headline qualitative results of §6.1:
	// (1) joint methods dominate univariate ones at top-20;
	if rep.Metrics["success20/L2"] < rep.Metrics["success20/CorrMean"] {
		t.Fatalf("L2 should beat CorrMean at top-20:\n%s", rep)
	}
	// (2) CorrMax is competitive at top-1 (univariate causes exist);
	if rep.Metrics["success1/CorrMax"] == 0 {
		t.Fatalf("CorrMax should win some scenarios at top-1:\n%s", rep)
	}
	// (3) no scorer fails everywhere;
	for _, name := range []string{"CorrMean", "CorrMax", "L2", "L2-P50", "L2-P500"} {
		if rep.Metrics["success20/"+name] == 0 {
			t.Fatalf("%s found no causes at all:\n%s", name, rep)
		}
	}
	// (4) CorrMean is the weakest overall, as in the paper's Table 6.
	if rep.Metrics["avg_gain/CorrMean"] > rep.Metrics["avg_gain/CorrMax"] {
		t.Fatalf("CorrMean should not beat CorrMax on average:\n%s", rep)
	}

	fig := report(t, func() (*Report, error) { return Figure10(0.3) })
	// Univariate scoring is cheaper per family than the joint method.
	if fig.Metrics["mean_us/CorrMean"] >= fig.Metrics["mean_us/L2"] {
		t.Fatalf("CorrMean should be cheaper than L2:\n%s", fig)
	}
}

func TestAblationsShape(t *testing.T) {
	rep := report(t, Ablations)
	if rep.Metrics["dense_speedup"] < 1 {
		t.Fatalf("dense arrays should win: %+v", rep.Metrics)
	}
	if rep.Metrics["join_speedup"] < 2 {
		t.Fatalf("hash join should beat cross product: %+v", rep.Metrics)
	}
	// §4.2: PCA discards the anomaly direction; random projection keeps a
	// share of it. The projected score must remain clearly above PCA's
	// (which collapses to the noise floor) so the cause still ranks.
	if rep.Metrics["projection_score"] < 3*rep.Metrics["pca_score"] ||
		rep.Metrics["projection_score"] < 0.05 {
		t.Fatalf("projection %v should clearly beat PCA %v",
			rep.Metrics["projection_score"], rep.Metrics["pca_score"])
	}
	if rep.Metrics["dual_speedup"] < 1 {
		t.Fatalf("dual ridge should win for p >> n: %+v", rep.Metrics)
	}
	if rep.Metrics["cv_inflation"] < 0 {
		t.Fatalf("shuffled folds should inflate scores: %+v", rep.Metrics)
	}
	// §6.2: serialisation weighs more on cheap univariate scorers than on
	// the expensive joint ones.
	if rep.Metrics["serialization_univariate"] <= rep.Metrics["serialization_joint"] {
		t.Fatalf("serialisation share shape: univariate %v vs joint %v",
			rep.Metrics["serialization_univariate"], rep.Metrics["serialization_joint"])
	}
}

// report runs one experiment and fails the test on an error or an empty
// report.
func report(t *testing.T, run func() (*Report, error)) *Report {
	t.Helper()
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) == 0 {
		t.Fatalf("%s: empty report", rep.Name)
	}
	return rep
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
