package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/device"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// updateGolden regenerates the committed golden checkpoint fixtures:
//
//	go test ./internal/core/ -run TestGoldenCheckpoint -update-golden
var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden checkpoint fixtures")

const (
	goldenCkptFile = "testdata/golden-round2.fedckpt"
	goldenHistFile = "testdata/golden-history.json"
	goldenRounds   = 4
	goldenResumeAt = 2
)

// goldenConfig is the fixed configuration behind the committed fixture. It
// exercises the full FedFT-EDS stack: partial training, entropy selection,
// and the utility-driven cohort scheduler. EvalEvery 1 keeps every float in
// the history finite, so it survives a JSON round trip exactly (Go marshals
// float64 with shortest-round-trip precision).
func goldenConfig() Config {
	return Config{
		Rounds:         goldenRounds,
		LocalEpochs:    1,
		BatchSize:      16,
		LR:             0.1,
		Momentum:       0.5,
		FinetunePart:   models.FinetuneModerate,
		Selector:       selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.5,
		Scheduler:      sched.EntropyUtility{},
		CohortSize:     3,
		EvalEvery:      1,
		Parallelism:    2,
		Seed:           1234,
	}
}

// TestGoldenCheckpoint is the CI determinism gate: decoding the committed
// checkpoint and resuming two rounds from it must reproduce the committed
// expected history exactly. It fails on silent codec/format drift (the
// fixture stops decoding, or re-encoding it changes bytes) and on
// RNG-ordering drift anywhere in the training stack (the resumed history
// diverges). Regenerate fixtures with -update-golden after an *intentional*
// format or numerics change, and say so in the commit message.
func TestGoldenCheckpoint(t *testing.T) {
	clients, _, test, spec := testFederation(t, 6, 0.5)
	build := func() *models.Model {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	if *updateGolden {
		dir := t.TempDir()
		cfg := goldenConfig()
		cfg.CheckpointDir = dir
		runner, err := NewRunner(cfg, build(), clients, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCkptFile), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(ckpt.Path(dir, goldenResumeAt))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCkptFile, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(hist, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHistFile, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s and %s", goldenCkptFile, goldenHistFile)
		return
	}

	js, err := os.ReadFile(goldenHistFile)
	if err != nil {
		t.Fatalf("missing golden history (regenerate with -update-golden): %v", err)
	}
	var wantHist History
	if err := json.Unmarshal(js, &wantHist); err != nil {
		t.Fatal(err)
	}

	// Gate 1: the committed file still decodes, and re-encoding its state
	// reproduces it byte for byte (codec determinism and format stability).
	blob, err := os.ReadFile(goldenCkptFile)
	if err != nil {
		t.Fatalf("missing golden checkpoint (regenerate with -update-golden): %v", err)
	}
	sections, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatalf("golden checkpoint no longer decodes — the codec or format drifted: %v", err)
	}
	state, err := RunStateFromSections(sections)
	if err != nil {
		t.Fatalf("golden run state no longer decodes: %v", err)
	}
	reSections, err := state.Sections()
	if err != nil {
		t.Fatal(err)
	}
	reBlob, err := ckpt.Marshal(reSections)
	if err != nil {
		t.Fatal(err)
	}
	if string(reBlob) != string(blob) {
		t.Fatalf("re-encoding the golden state changed its bytes (%d vs %d): encoding is no longer "+
			"deterministic or the format changed without a version bump", len(reBlob), len(blob))
	}

	// Gate 2: resuming 2 rounds from the fixture reproduces the committed
	// history exactly.
	if state.Round != goldenResumeAt {
		t.Fatalf("golden checkpoint is at round %d, want %d", state.Round, goldenResumeAt)
	}
	runner, err := NewRunner(goldenConfig(), build(), clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if err := state.RestoreInto(runner); err != nil {
		t.Fatal(err)
	}
	hist, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !histEqual(wantHist, hist) {
		t.Fatalf("resuming from the golden checkpoint diverged from the committed history — "+
			"RNG ordering or numerics drifted:\nwant: %+v\ngot:  %+v", wantHist, hist)
	}
}

const (
	goldenStratCkptFile = "testdata/golden-fedadam-round2.fedckpt"
	goldenStratHistFile = "testdata/golden-fedadam-history.json"
	goldenStratSpec     = "fedadam:lr=0.2"
)

// goldenStratConfig is the strategy-bearing golden fixture's configuration:
// FedAdam mid-run, so the committed checkpoint carries the optional
// "strategy" section with live server-optimizer moments.
func goldenStratConfig(t *testing.T) Config {
	strat, err := strategy.Parse(goldenStratSpec)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rounds:         goldenRounds,
		LocalEpochs:    1,
		BatchSize:      16,
		LR:             0.1,
		Momentum:       0.5,
		FinetunePart:   models.FinetuneModerate,
		Selector:       selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.5,
		Strategy:       strat,
		EvalEvery:      1,
		Parallelism:    2,
		Seed:           4321,
	}
}

// TestGoldenCheckpointFedAdam extends the determinism gate to the strategy
// layer: the committed FedAdam checkpoint (strategy section included) must
// decode, re-encode byte-identically, and resuming from it — moments
// restored mid-run — must reproduce the committed history exactly. It fails
// on drift in the strategy section format, the fingerprint rendering (which
// gates resume), or the server optimizer's numerics.
func TestGoldenCheckpointFedAdam(t *testing.T) {
	clients, _, test, spec := testFederation(t, 6, 0.5)
	build := func() *models.Model {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	if *updateGolden {
		dir := t.TempDir()
		cfg := goldenStratConfig(t)
		cfg.CheckpointDir = dir
		runner, err := NewRunner(cfg, build(), clients, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenStratCkptFile), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(ckpt.Path(dir, goldenResumeAt))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStratCkptFile, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(hist, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStratHistFile, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s and %s", goldenStratCkptFile, goldenStratHistFile)
		return
	}

	js, err := os.ReadFile(goldenStratHistFile)
	if err != nil {
		t.Fatalf("missing golden fedadam history (regenerate with -update-golden): %v", err)
	}
	var wantHist History
	if err := json.Unmarshal(js, &wantHist); err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(goldenStratCkptFile)
	if err != nil {
		t.Fatalf("missing golden fedadam checkpoint (regenerate with -update-golden): %v", err)
	}
	sections, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatalf("golden fedadam checkpoint no longer decodes: %v", err)
	}
	state, err := RunStateFromSections(sections)
	if err != nil {
		t.Fatalf("golden fedadam run state no longer decodes: %v", err)
	}
	if state.StratName == "" || len(state.StratState) == 0 {
		t.Fatalf("golden fedadam checkpoint lost its strategy section: name %q, %d state tensors",
			state.StratName, len(state.StratState))
	}
	reSections, err := state.Sections()
	if err != nil {
		t.Fatal(err)
	}
	reBlob, err := ckpt.Marshal(reSections)
	if err != nil {
		t.Fatal(err)
	}
	if string(reBlob) != string(blob) {
		t.Fatalf("re-encoding the golden fedadam state changed its bytes (%d vs %d)", len(reBlob), len(blob))
	}

	if state.Round != goldenResumeAt {
		t.Fatalf("golden fedadam checkpoint is at round %d, want %d", state.Round, goldenResumeAt)
	}
	runner, err := NewRunner(goldenStratConfig(t), build(), clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if err := state.RestoreInto(runner); err != nil {
		t.Fatal(err)
	}
	hist, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !histEqual(wantHist, hist) {
		t.Fatalf("resuming from the golden fedadam checkpoint diverged from the committed history:\nwant: %+v\ngot:  %+v",
			wantHist, hist)
	}
}

// TestTrainingTagPinned holds runTag to values recorded before the strategy
// became the config's only name for the weighting and the local objective:
// every checkpoint a default or explicit-strategy run wrote then must still
// resume, so each config here renders to the same tag it did.
func TestTrainingTagPinned(t *testing.T) {
	tiers, err := device.ParseDistribution("low:1,full:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		clients int
		cfg     Config
		want    uint64
	}{
		{"golden", 6, goldenConfig(), 0x5e0ff0d3316932f7},
		{"golden fedadam", 6, goldenStratConfig(t), 0x6703613b62ba9f2},
		{"golden async", 4, goldenAsyncConfig(), 0x785692c32b556358},
		{"tiers codec scheduler", 4, Config{Rounds: 2, LocalEpochs: 1, LR: 0.1, Momentum: 0.5,
			TierDist: tiers, Codec: "int8", Scheduler: sched.EntropyUtility{}, CohortSize: 2, Seed: 5}, 0xc1e196f544595dc},
		{"straggler cohort", 5, Config{Rounds: 2, LocalEpochs: 2, LR: 0.05,
			FinetunePart: models.FinetuneModerate, Selector: selection.Random{}, SelectFraction: 0.25,
			Straggler: simtime.DeadlineStraggler{DeadlineSeconds: 3}, CohortSize: 3, Seed: 9}, 0x1db267f314510374},
	} {
		clients, _, test, spec := testFederation(t, tc.clients, 0.5)
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(tc.cfg, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.runTag(); got != tc.want {
			t.Errorf("%s: runTag %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
