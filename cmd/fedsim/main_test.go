package main

import (
	"os"
	"strings"
	"testing"

	"fedfteds/internal/experiments"
)

func testEnv(t *testing.T) *experiments.Env {
	t.Helper()
	env, err := experiments.NewEnv(experiments.ScaleSmoke, 2)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestRunExperimentDispatch(t *testing.T) {
	env := testEnv(t)
	// The cheap experiments exercise the full dispatch surface; table2/3
	// variants are covered by the experiments package tests.
	for _, tt := range []struct {
		id   string
		want string
	}{
		{id: "fig1", want: "entropy distribution"},
		{id: "table1", want: "Diri(0.1)"},
		{id: "fig2", want: "CKA"},
		{id: "fig3", want: "CKA"},
		{id: "table4", want: "cross-domain"},
		{id: "fig10a", want: "fine-tuned"},
		{id: "sched", want: "Scheduler comparison"},
		{id: "strategies", want: "Strategy comparison"},
	} {
		t.Run(tt.id, func(t *testing.T) {
			out, err := runExperiment(env, tt.id, options{})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, tt.want) {
				t.Fatalf("output of %s missing %q:\n%s", tt.id, tt.want, out)
			}
		})
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	env := testEnv(t)
	if _, err := runExperiment(env, "table99", options{}); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "enormous"}); err == nil {
		t.Fatal("expected error for unknown scale")
	}
	if err := run([]string{"-exp", "nope", "-scale", "smoke"}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	// Scheduler flags fail fast, before any experiment runs.
	if err := run([]string{"-exp", "sched", "-scale", "smoke", "-sched", "fifo"}); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if err := run([]string{"-exp", "sched", "-scale", "smoke", "-cohort", "-2"}); err == nil {
		t.Fatal("expected error for negative cohort")
	}
	// Strategy specs fail fast too, whatever experiments run.
	if err := run([]string{"-exp", "strategies", "-scale", "smoke", "-strategy", "sgd"}); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
	if err := run([]string{"-exp", "strategies", "-scale", "smoke", "-strategy", "fedadam:lr=0"}); err == nil {
		t.Fatal("expected error for invalid strategy parameter")
	}
	// Unwritable profile paths fail fast too.
	if err := run([]string{"-exp", "fig1", "-scale", "smoke", "-cpuprofile", "/nonexistent-dir/cpu.out"}); err == nil {
		t.Fatal("expected error for unwritable cpuprofile path")
	}
	if err := run([]string{"-exp", "fig1", "-scale", "smoke", "-memprofile", "/nonexistent-dir/mem.out"}); err == nil {
		t.Fatal("expected error for unwritable memprofile path")
	}
}

// TestRunFleetFlags pins the virtual-fleet CLI surface: the eager capacity
// fail-fast, trace validation, and the -fleet day run end to end.
func TestRunFleetFlags(t *testing.T) {
	// A million clients without -fleet must be refused with the actionable
	// hint, before anything trains.
	err := run([]string{"-scale", "smoke", "-clients", "1000000"})
	if err == nil || !strings.Contains(err.Error(), "-fleet") {
		t.Fatalf("oversized eager population: err %v, want a -fleet hint", err)
	}
	// Negative populations and malformed traces fail fast too.
	if err := run([]string{"-scale", "smoke", "-clients", "-5"}); err == nil {
		t.Fatal("expected error for negative -clients")
	}
	bad := t.TempDir() + "/bad.trace"
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fleet", "-scale", "smoke", "-clients", "64", "-trace", bad}); err == nil {
		t.Fatal("expected error for malformed -trace")
	}
	// The real thing: -fleet selects the simulated day by default.
	if err := run([]string{"-fleet", "-scale", "smoke", "-clients", "64", "-cohort", "4"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFleetAsyncDay drives the buffered-async day through the CLI.
func TestRunFleetAsyncDay(t *testing.T) {
	if err := run([]string{"-fleet", "-scale", "smoke", "-clients", "64", "-cohort", "6", "-buffer", "3"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFleetCompareExperiment runs the -exp fleet sweep through the CLI.
func TestRunFleetCompareExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fleet", "-scale", "smoke", "-clients", "48", "-cohort", "4"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunWritesProfiles exercises the -cpuprofile/-memprofile plumbing end to
// end on a tiny experiment so future perf PRs can be diagnosed without code
// edits.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.out", dir+"/mem.out"
	if err := run([]string{"-exp", "fig1", "-scale", "smoke", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestRunSchedSinglePolicy runs the sched experiment narrowed to one policy
// through the real CLI path, sharing the policy vocabulary with fedserver.
func TestRunSchedSinglePolicy(t *testing.T) {
	if err := run([]string{"-exp", "sched", "-scale", "smoke", "-sched", "powerd", "-cohort", "2"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunStrategiesSingleSpec runs the strategies experiment narrowed to one
// parameterized spec through the real CLI path, sharing the strategy
// vocabulary with fedserver.
func TestRunStrategiesSingleSpec(t *testing.T) {
	if err := run([]string{"-exp", "strategies", "-scale", "smoke", "-strategy", "fedadam:lr=0.05"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadCheckpointFlags pins the fail-fast validation of the
// -ckpt-*/-resume flags: inconsistent combinations and unusable directories
// must fail before any experiment trains.
func TestRunRejectsBadCheckpointFlags(t *testing.T) {
	if err := run([]string{"-exp", "fig1", "-scale", "smoke", "-ckpt-every", "-1"}); err == nil {
		t.Fatal("expected error for negative -ckpt-every")
	}
	if err := run([]string{"-exp", "fig1", "-scale", "smoke", "-ckpt-every", "2"}); err == nil {
		t.Fatal("expected error for -ckpt-every without -ckpt-dir")
	}
	if err := run([]string{"-exp", "fig1", "-scale", "smoke", "-resume"}); err == nil {
		t.Fatal("expected error for -resume without -ckpt-dir")
	}
	// A directory path below an existing file cannot be created.
	bad := t.TempDir() + "/occupied"
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig1", "-scale", "smoke", "-ckpt-dir", bad + "/sub"}); err == nil {
		t.Fatal("expected error for uncreatable -ckpt-dir")
	}
}

// TestRunWithCheckpointResume drives the full CLI path twice on a tiny
// experiment sharing one artifact store: the second invocation resumes the
// first's stored runs and must succeed.
func TestRunWithCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "sched", "-scale", "smoke", "-sched", "uniform", "-cohort", "2", "-ckpt-dir", dir}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no artifacts stored")
	}
	if err := run(append(args, "-resume")); err != nil {
		t.Fatal(err)
	}
}
