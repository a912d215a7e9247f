package experiments

import (
	"math"
	"strings"
	"testing"

	"fedfteds/internal/core"
)

// TestRunSchedCompareSmoke runs the scheduler comparison at smoke scale:
// every policy must produce a full history whose records carry the cohort
// size, policy name, participants and monotone cumulative client-seconds.
func TestRunSchedCompareSmoke(t *testing.T) {
	env, err := NewEnv(ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	axis := AxisByID("sched")
	res, err := RunSweep(env, axis, SweepOptions{Cohort: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(axis.Lineup) {
		t.Fatalf("%d rows, want %d", len(res.Cells), len(axis.Lineup))
	}
	for i, row := range res.Cells {
		if row.Arm.Label != axis.Lineup[i] || row.Arm.Size != 3 {
			t.Fatalf("row %d is policy %q at K=%d, want %q at K=3", i, row.Arm.Label, row.Arm.Size, axis.Lineup[i])
		}
		if len(row.Hist.Records) != env.Dims.Rounds {
			t.Fatalf("%s: %d records, want %d", row.Arm.Label, len(row.Hist.Records), env.Dims.Rounds)
		}
		prevCum := 0.0
		for _, rec := range row.Hist.Records {
			if rec.SchedPolicy != row.Arm.Label {
				t.Fatalf("%s round %d: record policy %q", row.Arm.Label, rec.Round, rec.SchedPolicy)
			}
			if rec.CohortSize < 1 || rec.CohortSize > 3 {
				t.Fatalf("%s round %d: cohort size %d, want 1..3", row.Arm.Label, rec.Round, rec.CohortSize)
			}
			if rec.Participants < 1 || rec.Participants > rec.CohortSize {
				t.Fatalf("%s round %d: %d participants of cohort %d", row.Arm.Label, rec.Round, rec.Participants, rec.CohortSize)
			}
			if rec.CumTrainSeconds < prevCum {
				t.Fatalf("%s round %d: cumulative seconds decreased", row.Arm.Label, rec.Round)
			}
			prevCum = rec.CumTrainSeconds
		}
		if math.IsNaN(row.Hist.FinalAccuracy) || row.Hist.FinalAccuracy <= 0 {
			t.Fatalf("%s: final accuracy %v", row.Arm.Label, row.Hist.FinalAccuracy)
		}
	}
	if out := res.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}

// TestRunStrategyCompare runs the full default lineup at smoke scale: every
// strategy completes, the rows come back in order, and the rendering carries
// the efficiency column.
func TestRunStrategyCompare(t *testing.T) {
	env := smokeEnv(t)
	axis := AxisByID("strategies")
	res, err := RunSweep(env, axis, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(axis.Lineup) {
		t.Fatalf("%d rows, want %d", len(res.Cells), len(axis.Lineup))
	}
	for i, row := range res.Cells {
		if row.Arm.Label != axis.Lineup[i] {
			t.Fatalf("row %d is %q, want %q", i, row.Arm.Label, axis.Lineup[i])
		}
		if len(row.Hist.Records) != env.Dims.Rounds {
			t.Fatalf("%s ran %d rounds, want %d", row.Arm.Label, len(row.Hist.Records), env.Dims.Rounds)
		}
		if row.Hist.TotalTrainSeconds <= 0 {
			t.Fatalf("%s has no cost accounting", row.Arm.Label)
		}
	}
	out := res.Render()
	for _, want := range append([]string{"Strategy comparison", "eff (%/s)"}, axis.Lineup...) {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestRunStrategyCompareParameterized: an explicit parameterized spec runs
// and is labeled verbatim.
func TestRunStrategyCompareParameterized(t *testing.T) {
	env := smokeEnv(t)
	axis := AxisByID("strategies")
	res, err := RunSweep(env, axis, SweepOptions{Only: map[string]string{"strategies": "fedadam:lr=0.05,beta1=0.8"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Cells[0].Arm.Label != "fedadam:lr=0.05,beta1=0.8" {
		t.Fatalf("unexpected rows: %+v", res.Cells)
	}
	if _, err := RunSweep(env, axis, SweepOptions{Only: map[string]string{"strategies": "nope"}}); err == nil {
		t.Fatal("unknown strategy spec accepted")
	}
}

// TestSweepEfficiencyColumnShared pins the one definition of the efficiency
// cell: the strategies and async tables render the same History to the same
// digits, the percent-per-second History.LearningEfficiency returns (the
// strategies table once printed it a hundred times too large).
func TestSweepEfficiencyColumnShared(t *testing.T) {
	row := Cell{Arm: &Arm{Label: "x"}, Hist: core.History{BestAccuracy: 0.4613, TotalTrainSeconds: 0.0005}}
	var cells []string
	for _, id := range []string{"strategies", "async"} {
		for _, col := range AxisByID(id).columns {
			if strings.HasPrefix(col.head, "eff") {
				cells = append(cells, col.cell(&row, nil))
			}
		}
	}
	if len(cells) != 2 || cells[0] != cells[1] || cells[0] != "9.226e+04" {
		t.Fatalf("efficiency cells %q, want two of 9.226e+04 (46.13%% over 0.0005 s)", cells)
	}
}
