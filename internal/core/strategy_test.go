package core

import (
	"errors"
	"reflect"
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

// TestExplicitFedAvgBitIdenticalToLegacy is the redesign's acceptance pin:
// a run with `-strategy fedavg` (an explicitly constructed default
// strategy) must reproduce the legacy nil-Strategy engine byte for byte —
// history and final global state — across both training paths.
func TestExplicitFedAvgBitIdenticalToLegacy(t *testing.T) {
	clients, _, test, spec := testFederation(t, 5, 0.5)
	newCfg := func() Config {
		return Config{
			Rounds: 3, LocalEpochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.5,
			FinetunePart: models.FinetuneModerate,
			Selector:     selection.Entropy{Temperature: 0.1}, SelectFraction: 0.5,
			Parallelism: 2, Seed: 77,
		}
	}
	run := func(t *testing.T, cfg Config, pooled bool) (History, *models.Model) {
		t.Helper()
		prev := reuseReplicas
		reuseReplicas = pooled
		defer func() { reuseReplicas = prev }()
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(cfg, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return hist, m
	}
	for _, pooled := range []bool{false, true} {
		legacyHist, legacyModel := run(t, newCfg(), pooled)
		cfg := newCfg()
		cfg.Strategy = strategy.FedAvg()
		stratHist, stratModel := run(t, cfg, pooled)
		if !reflect.DeepEqual(legacyHist, stratHist) {
			t.Fatalf("pooled=%v: histories differ:\nlegacy:   %+v\nstrategy: %+v", pooled, legacyHist, stratHist)
		}
		requireSameState(t, legacyModel, stratModel)
	}
}

// TestServerOptStrategiesLearnEndToEnd: every FedOpt strategy completes a
// full run through the simulator engine and still learns.
func TestServerOptStrategiesLearnEndToEnd(t *testing.T) {
	clients, _, test, spec := testFederation(t, 5, 0.5)
	for _, spec2 := range []string{"fedavgm", "fedadam:lr=0.3", "fedyogi:lr=0.3"} {
		t.Run(spec2, func(t *testing.T) {
			strat, err := strategy.Parse(spec2)
			if err != nil {
				t.Fatal(err)
			}
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(Config{
				Rounds: 8, LocalEpochs: 2, LR: 0.1, Momentum: 0.5,
				Strategy: strat, Seed: 21,
			}, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if hist.BestAccuracy <= 0.3 {
				t.Fatalf("%s did not learn: best accuracy %v", spec2, hist.BestAccuracy)
			}
		})
	}
}

// TestLocalConfigStripsSchedulerFields is the satellite bugfix regression:
// scheduler settings are meaningless on a standalone client, so
// NewLocalConfig must strip them instead of silently defaulting a
// UniformRandom scheduler via withDefaults.
func TestLocalConfigStripsSchedulerFields(t *testing.T) {
	cfg, err := NewLocalConfig(Config{
		LocalEpochs: 1, LR: 0.1, Seed: 1,
		CohortSize: 5, Scheduler: sched.EntropyUtility{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != nil {
		t.Fatalf("standalone client kept scheduler %s", cfg.Scheduler.Name())
	}
	if cfg.CohortSize != 0 {
		t.Fatalf("standalone client kept cohort size %d", cfg.CohortSize)
	}
}

// TestStrategyCheckpointResumeRefusals: a checkpoint written under one
// strategy is refused under an edited or removed one.
func TestStrategyCheckpointResumeRefusals(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	newCfg := func(stratSpec string) Config {
		cfg := Config{
			Rounds: 3, LocalEpochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.5,
			Parallelism: 2, Seed: 42,
		}
		if stratSpec != "" {
			strat, err := strategy.Parse(stratSpec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Strategy = strat
		}
		return cfg
	}
	newRunner := func(cfg Config) *Runner {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(cfg, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	cfg := newCfg("fedadam:lr=0.05")
	cfg.CheckpointDir = t.TempDir()
	runner := newRunner(cfg)
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	state, err := LoadLatestRunState(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if state.StratName == "" || len(state.StratState) == 0 {
		t.Fatalf("fedadam checkpoint carries no strategy state: %+v", state.StratName)
	}

	for _, tt := range []struct{ name, spec string }{
		{"edited lr", "fedadam:lr=0.1"},
		{"different strategy", "fedyogi:lr=0.05"},
		{"strategy removed", ""},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if err := state.RestoreInto(newRunner(newCfg(tt.spec))); !errors.Is(err, ErrConfig) {
				t.Fatalf("mismatched strategy restore: %v", err)
			}
		})
	}

	// And the matching strategy restores cleanly.
	ok := newRunner(newCfg("fedadam:lr=0.05"))
	if err := state.RestoreInto(ok); err != nil {
		t.Fatal(err)
	}

	// The reverse direction: a legacy (nil-strategy) checkpoint is refused
	// under an explicit strategy.
	legacyCfg := newCfg("")
	legacyCfg.CheckpointDir = t.TempDir()
	legacyRunner := newRunner(legacyCfg)
	if _, err := legacyRunner.Run(); err != nil {
		t.Fatal(err)
	}
	legacyState, err := LoadLatestRunState(legacyCfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if legacyState.StratName != "" || len(legacyState.StratState) != 0 {
		t.Fatal("legacy checkpoint unexpectedly carries strategy state")
	}
	if err := legacyState.RestoreInto(newRunner(newCfg("fedadam:lr=0.05"))); !errors.Is(err, ErrConfig) {
		t.Fatalf("legacy checkpoint restored under fedadam: %v", err)
	}
}
