package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"fedfteds/internal/core"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
)

// smokeEnv returns a shared tiny environment. Experiments under ScaleSmoke
// verify structure and plumbing; orderings are asserted only where robust.
func smokeEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(ScaleSmoke, 3)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func assertAcc(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || v < 0 || v > 1 {
		t.Fatalf("%s: accuracy %v outside [0,1]", name, v)
	}
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(Scale(99), 1); !errors.Is(err, ErrExperiment) {
		t.Fatalf("expected ErrExperiment, got %v", err)
	}
}

func TestParseScale(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want Scale
	}{{in: "smoke", want: ScaleSmoke}, {in: "fast", want: ScaleFast}, {in: "full", want: ScaleFull}} {
		got, err := ParseScale(tt.in)
		if err != nil || got != tt.want {
			t.Fatalf("ParseScale(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := ParseScale("huge"); !errors.Is(err, ErrExperiment) {
		t.Fatalf("expected ErrExperiment, got %v", err)
	}
}

func TestTarget100ScaledClassCount(t *testing.T) {
	env := smokeEnv(t)
	d, err := env.Target100()
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.NumClasses != env.Dims.Target100Classes {
		t.Fatalf("target100 classes %d, want %d", d.Spec.NumClasses, env.Dims.Target100Classes)
	}
	// Cached on second call.
	d2, err := env.Target100()
	if err != nil || d2 != d {
		t.Fatal("Target100 not cached")
	}
}

func TestBuildFederationStructure(t *testing.T) {
	env := smokeEnv(t)
	fed, err := env.BuildFederation(env.Suite.Target10, 4, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Clients) != 4 {
		t.Fatalf("%d clients", len(fed.Clients))
	}
	total := 0
	for _, cl := range fed.Clients {
		total += cl.Data.Len()
		if cl.Device.FLOPSRate <= 0 {
			t.Fatal("client without device speed")
		}
	}
	if total != fed.Pool.Len() {
		t.Fatalf("clients hold %d of %d pool samples", total, fed.Pool.Len())
	}
}

func TestPretrainedModelCachedAndIndependent(t *testing.T) {
	env := smokeEnv(t)
	m1, err := env.PretrainedModel(env.Suite.Target10, env.Suite.Source)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := env.PretrainedModel(env.Suite.Target10, env.Suite.Source)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("PretrainedModel returned the same instance twice")
	}
	// Feature extractors must be identical, classifiers freshly initialized.
	e1, err := m1.GroupStateTensors([]string{models.GroupLow})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := m2.GroupStateTensors([]string{models.GroupLow})
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if !e1[i].Equal(e2[i]) {
			t.Fatal("cached pretrained extractors differ")
		}
	}
	// Mutating one copy must not affect the other.
	e1[0].AddScalar(1)
	if e1[0].Equal(e2[0]) {
		t.Fatal("pretrained copies share storage")
	}
}

func TestRunTable1Structure(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunTable1(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		assertAcc(t, row.Pretraining, row.AccAlpha01)
		assertAcc(t, row.Pretraining, row.AccAlpha05)
	}
	out := res.Render()
	if !strings.Contains(out, "Diri(0.1)") || !strings.Contains(out, "none") {
		t.Fatalf("render missing expected columns:\n%s", out)
	}
}

func TestRunTable2Structure(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunTable2(env)
	if err != nil {
		t.Fatal(err)
	}
	// 7 methods + centralized, 2 datasets, 2 alphas.
	if len(res.Cells) != 8*2*2 {
		t.Fatalf("%d cells, want 32", len(res.Cells))
	}
	for _, c := range res.Cells {
		assertAcc(t, c.Method, c.BestAccuracy)
		if c.Method != "Centralised" && len(c.Curve) != env.Dims.Rounds {
			t.Fatalf("%s: curve length %d", c.Method, len(c.Curve))
		}
	}
	if _, ok := res.Get("FedFT-EDS (10%)", "synthc10", 0.1); !ok {
		t.Fatal("missing FedFT-EDS cell")
	}
	// FedFT must communicate less than FedAvg.
	eds, _ := res.Get("FedFT-EDS (10%)", "synthc10", 0.1)
	avg, _ := res.Get("FedAvg", "synthc10", 0.1)
	if eds.UplinkBytes >= avg.UplinkBytes {
		t.Fatalf("FedFT uplink %d >= FedAvg %d", eds.UplinkBytes, avg.UplinkBytes)
	}
	// And train for far less simulated time.
	if eds.TrainSeconds >= avg.TrainSeconds {
		t.Fatalf("FedFT train seconds %v >= FedAvg %v", eds.TrainSeconds, avg.TrainSeconds)
	}
	for _, render := range []string{
		res.Render(),
		res.RenderFigure5("synthc10", 0.1),
		res.RenderFigure6("synthc10", 0.1),
	} {
		if render == "" {
			t.Fatal("empty render")
		}
	}
}

// TestFedFTEDSEfficiencyGate pins the part of the paper's claim that is
// robust in this reproduction: on the (synthc10, Diri(0.1)) cell of Table II
// at ScaleFast, FedFT-EDS (10%) buys its accuracy with at most a third of
// FedAvg's client compute and reaches at least three times its learning
// efficiency (best accuracy per client-second, Fig. 6; the paper's "up to 3
// times"). Measured 5.2x-8.1x over seeds 1-3 and all four cells; see
// EXPERIMENTS.md. Neither accuracy ordering is asserted: at this scale
// FedFT-EDS does not beat FedAvg on accuracy, and EDS against RDS flips with
// the seed. The runs go through Runner.Run, the accountant and the round
// records, so a change to the round loop that loses or double-counts client
// work fails here.
func TestFedFTEDSEfficiencyGate(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			env, err := NewEnv(ScaleFast, seed)
			if err != nil {
				t.Fatal(err)
			}
			// RunTable2's federation and seed salt for its first cell.
			fed, err := env.BuildFederation(env.Suite.Target10, env.Dims.SmallClients, 0.1, 10)
			if err != nil {
				t.Fatal(err)
			}
			hists := map[string]core.History{}
			for _, m := range standardMethods(table2Pds) {
				if m.Name != "FedAvg" && m.Name != "FedFT-EDS (10%)" {
					continue
				}
				if hists[m.Name], err = env.RunMethod(m, fed, env.Suite.Target10, env.Suite.Source, 2); err != nil {
					t.Fatal(err)
				}
			}
			avg, eds := hists["FedAvg"], hists["FedFT-EDS (10%)"]
			avgEff, err := avg.LearningEfficiency()
			if err != nil {
				t.Fatal(err)
			}
			edsEff, err := eds.LearningEfficiency()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("efficiency %.1f vs %.1f %%/s, client-seconds %.2f vs %.2f", edsEff, avgEff,
				eds.TotalTrainSeconds, avg.TotalTrainSeconds)
			if edsEff < 3*avgEff {
				t.Errorf("FedFT-EDS efficiency %.1f %%/s is under 3x FedAvg's %.1f", edsEff, avgEff)
			}
			if eds.TotalTrainSeconds > avg.TotalTrainSeconds/3 {
				t.Errorf("FedFT-EDS spent %.2f client-seconds, over a third of FedAvg's %.2f",
					eds.TotalTrainSeconds, avg.TotalTrainSeconds)
			}
		})
	}
}

func TestRunTable3Structure(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunTable3(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 9*2*2 {
		t.Fatalf("%d cells, want 36", len(res.Cells))
	}
	// The fn=10% FedAvg row must involve fewer participants; proxy: its
	// simulated time is lower than full participation.
	full, ok1 := res.Get("FedAvg 100% c.p.", "synthc10", 0.1)
	ten, ok2 := res.Get("FedAvg 10% c.p.", "synthc10", 0.1)
	if !ok1 || !ok2 {
		t.Fatal("missing FedAvg rows")
	}
	if ten.TrainSeconds >= full.TrainSeconds {
		t.Fatalf("10%% participation time %v >= 100%% time %v", ten.TrainSeconds, full.TrainSeconds)
	}
	for _, render := range []string{
		res.Render(),
		res.RenderFigure7("synthc10", 0.1),
		res.RenderFigure8("synthc10", 0.1),
		res.RenderFigure9("synthc10", 0.5),
	} {
		if render == "" {
			t.Fatal("empty render")
		}
	}
}

func TestRunTable4Structure(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunTable4(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("%d rows, want 7", len(res.Rows))
	}
	for _, row := range res.Rows {
		assertAcc(t, row.Method, row.Accuracy)
	}
	if _, ok := res.Get("Centralised"); !ok {
		t.Fatal("missing centralized row")
	}
	if out := res.Render(); !strings.Contains(out, "FedFT-EDS") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunFig1Shape(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunFig1(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Temperatures) != 3 || len(res.Histograms) != 3 {
		t.Fatalf("temperatures %v", res.Temperatures)
	}
	// The paper's Fig. 1 claim: hardening (smaller ρ) pushes the median
	// entropy down. This ordering is robust even at smoke scale.
	if !(res.Medians[2] <= res.Medians[1] && res.Medians[1] <= res.Medians[0]) {
		t.Fatalf("medians not decreasing with ρ: %v", res.Medians)
	}
	// Histograms count every sample.
	var want int
	for _, c := range res.Histograms[0] {
		want += c
	}
	for ti := 1; ti < 3; ti++ {
		var got int
		for _, c := range res.Histograms[ti] {
			got += c
		}
		if got != want {
			t.Fatalf("histogram %d counts %d vs %d", ti, got, want)
		}
	}
	if out := res.Render(); !strings.Contains(out, "ρ=0.1") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunCKAShape(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunCKA(env, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	n := env.Dims.SmallClients
	for pi := 0; pi < 2; pi++ {
		for _, layer := range res.Layers {
			m := res.Heatmaps[pi][layer]
			if len(m) != n {
				t.Fatalf("heatmap size %d, want %d", len(m), n)
			}
			for i := range m {
				if math.Abs(m[i][i]-1) > 1e-9 {
					t.Fatalf("diagonal CKA %v", m[i][i])
				}
				for j := range m {
					if m[i][j] < -1e-9 || m[i][j] > 1+1e-9 {
						t.Fatalf("CKA %v outside [0,1]", m[i][j])
					}
				}
			}
			avg := res.Averages[pi][layer]
			if avg <= 0 || avg > 1 {
				t.Fatalf("average CKA %v", avg)
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "Fig. 4") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunFig10aStructure(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunFig10a(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 4 || len(res.EDS) != 4 || len(res.RDS) != 4 {
		t.Fatalf("parts %v", res.Parts)
	}
	for i := range res.Parts {
		assertAcc(t, res.Parts[i].String(), res.EDS[i])
		assertAcc(t, res.Parts[i].String(), res.RDS[i])
	}
	if out := res.Render(); !strings.Contains(out, "classifier") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunFig10bStructure(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunFig10b(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alphas) != 5 {
		t.Fatalf("alphas %v", res.Alphas)
	}
	for i := range res.Alphas {
		assertAcc(t, "eds", res.EDS[i])
		assertAcc(t, "rds", res.RDS[i])
	}
}

func TestRunFig10cStructure(t *testing.T) {
	env := smokeEnv(t)
	res, err := RunFig10c(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Temperatures) != 7 || len(res.EDS) != 7 {
		t.Fatalf("temperatures %v", res.Temperatures)
	}
	assertAcc(t, "rds baseline", res.RDSBaseline)
	if out := res.Render(); !strings.Contains(out, "ρ") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunAblations(t *testing.T) {
	env := smokeEnv(t)
	for _, run := range []struct {
		name string
		fn   func(*Env) (*AblationResult, error)
		rows int
	}{
		{name: "batch-entropy", fn: RunAblationBatchEntropy, rows: 3},
		{name: "agg-weighting", fn: RunAblationAggWeighting, rows: 3},
		{name: "acquisition", fn: RunAblationAcquisition, rows: 6},
	} {
		t.Run(run.name, func(t *testing.T) {
			res, err := run.fn(env)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != run.rows {
				t.Fatalf("%d rows, want %d", len(res.Rows), run.rows)
			}
			for _, row := range res.Rows {
				assertAcc(t, row.Name, row.BestAccuracy)
			}
			if res.Render() == "" {
				t.Fatal("empty render")
			}
		})
	}
}

func TestRunMethodSelectionOverheadAccounted(t *testing.T) {
	// EDS must cost more simulated time than RDS at equal fraction: the
	// scoring pass is charged. Robust at any scale.
	env := smokeEnv(t)
	fed, err := env.BuildFederation(env.Suite.Target10, 4, 0.5, 900)
	if err != nil {
		t.Fatal(err)
	}
	eds := Method{Name: "eds", Pretrained: false, Part: models.FinetuneModerate,
		Selector: selection.Entropy{Temperature: 0.1}, Fraction: 0.5}
	rds := Method{Name: "rds", Pretrained: false, Part: models.FinetuneModerate,
		Selector: selection.Random{}, Fraction: 0.5}
	he, err := env.RunMethod(eds, fed, env.Suite.Target10, env.Suite.Source, 91)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := env.RunMethod(rds, fed, env.Suite.Target10, env.Suite.Source, 91)
	if err != nil {
		t.Fatal(err)
	}
	if he.TotalTrainSeconds <= hr.TotalTrainSeconds {
		t.Fatalf("EDS time %v <= RDS time %v: scoring pass not charged",
			he.TotalTrainSeconds, hr.TotalTrainSeconds)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("T", "a", "bb")
	tbl.AddRow("1", "2")
	tbl.AddRow("333") // short row padded
	out := tbl.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Fatalf("table:\n%s", out)
	}
	if Pct(math.NaN()) != "n/a" || Pct(0.5) != "50.00" {
		t.Fatal("Pct formatting")
	}
	s := Series{Name: "x", Values: []float64{math.NaN(), 0.25}}
	if s.LastFinite() != 0.25 {
		t.Fatal("LastFinite")
	}
	if RenderCurves("c", []Series{s}) == "" {
		t.Fatal("empty curves")
	}
}

// TestCheckpointArtifactStore: with a checkpoint policy installed, an
// experiment persists each run into its own subdirectory, and a re-launched
// sweep with Resume reloads the finished runs bit-identically instead of
// re-training them.
func TestCheckpointArtifactStore(t *testing.T) {
	dir := t.TempDir()
	uniformK2 := SweepOptions{Only: map[string]string{"sched": "uniform"}, Cohort: 2}

	env1, err := NewEnv(ScaleSmoke, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := env1.SetCheckpointPolicy(CheckpointPolicy{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	res1, err := RunSweep(env1, AxisByID("sched"), uniformK2)
	if err != nil {
		t.Fatal(err)
	}

	// The run landed in its own artifact subdirectory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("artifact store contents: %v", entries)
	}

	// A fresh environment resumes the stored run: identical history.
	env2, err := NewEnv(ScaleSmoke, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := env2.SetCheckpointPolicy(CheckpointPolicy{Dir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	res2, err := RunSweep(env2, AxisByID("sched"), uniformK2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Rows, res2.Rows) {
		t.Fatalf("resumed sweep differs:\nfirst:   %+v\nresumed: %+v", res1.Rows, res2.Rows)
	}
}

// TestSetCheckpointPolicyValidation pins the fail-fast rules.
func TestSetCheckpointPolicyValidation(t *testing.T) {
	env, err := NewEnv(ScaleSmoke, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.SetCheckpointPolicy(CheckpointPolicy{Dir: "x", Every: -1}); err == nil {
		t.Fatal("negative interval accepted")
	}
	if err := env.SetCheckpointPolicy(CheckpointPolicy{Resume: true}); err == nil {
		t.Fatal("resume without dir accepted")
	}
	if err := env.SetCheckpointPolicy(CheckpointPolicy{}); err != nil {
		t.Fatalf("disabled policy rejected: %v", err)
	}
}

// TestRunNameSanitization keeps artifact directory names filesystem-safe.
func TestRunNameSanitization(t *testing.T) {
	got := sanitizeRunName("FedFT-EDS (50%)/moderate a=0.1")
	for _, r := range got {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '.' || r == '_' || r == '-'
		if !ok {
			t.Fatalf("unsafe rune %q in %q", r, got)
		}
	}
}
