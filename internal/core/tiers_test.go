package core

import (
	"errors"
	"strings"
	"testing"

	"fedfteds/internal/device"
	"fedfteds/internal/models"
)

func mustDist(t *testing.T, spec string) *device.Distribution {
	t.Helper()
	d, err := device.ParseDistribution(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFullMaskBitIdenticalToLegacy pins the per-layer aggregation path to the
// legacy whole-state path: a tiered run where every client is in the "full"
// tier (whose mask covers every communicated group) must reproduce the
// untiered run bit for bit — same history, same accounting, same final model
// state — even though it flows through the mask/cover machinery.
func TestFullMaskBitIdenticalToLegacy(t *testing.T) {
	for _, part := range []models.FinetunePart{models.FinetuneFull, models.FinetuneModerate} {
		run := func(dist *device.Distribution) (History, *models.Model) {
			clients, _, test, spec := testFederation(t, 4, 0.5)
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(Config{
				Rounds: 3, LocalEpochs: 1, LR: 0.1, Momentum: 0.5,
				FinetunePart: part, TierDist: dist, Seed: 77, Parallelism: 2,
			}, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			h, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			return h, m
		}
		legacyHist, legacyModel := run(nil)
		tierHist, tierModel := run(mustDist(t, "full:1"))

		for i := range legacyHist.Records {
			a, b := legacyHist.Records[i], tierHist.Records[i]
			if a != b {
				t.Fatalf("part %v round %d: legacy record %+v != tiered %+v", part, i+1, a, b)
			}
		}
		if legacyHist.TotalUplinkBytes != tierHist.TotalUplinkBytes {
			t.Fatalf("part %v: uplink %d != %d", part, legacyHist.TotalUplinkBytes, tierHist.TotalUplinkBytes)
		}
		want, got := legacyModel.StateTensors(), tierModel.StateTensors()
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("part %v: state tensor %d differs between legacy and full-mask tiered run", part, i)
			}
		}
	}
}

// TestTieredRunTrainsAndSavesUplink runs a mixed tier distribution end to
// end: low-tier clients ship only their affordable top groups, so the run's
// uplink traffic must undercut the homogeneous full-tier run while the
// engine still completes every round.
func TestTieredRunTrainsAndSavesUplink(t *testing.T) {
	run := func(spec string) History {
		clients, _, test, mspec := testFederation(t, 6, 0.5)
		m, err := models.Build(mspec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{
			Rounds: 2, LocalEpochs: 1, LR: 0.1, Momentum: 0.5,
			TierDist: mustDist(t, spec), Seed: 31,
		}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	full := run("full:1")
	mixed := run("low:2,mid:2,full:2")
	if mixed.TotalUplinkBytes >= full.TotalUplinkBytes {
		t.Fatalf("mixed-tier uplink %d >= full-tier uplink %d — masked layers should ship zero bytes",
			mixed.TotalUplinkBytes, full.TotalUplinkBytes)
	}
	if mixed.TotalDownlinkBytes != full.TotalDownlinkBytes {
		t.Fatalf("downlink %d != %d — the broadcast is always the full communicated state",
			mixed.TotalDownlinkBytes, full.TotalDownlinkBytes)
	}
	if len(mixed.Records) != 2 || mixed.Records[1].Participants == 0 {
		t.Fatalf("tiered run did not complete: %+v", mixed.Records)
	}
	// Lower-capability tiers must also cost less simulated compute.
	if mixed.TotalTrainSeconds >= full.TotalTrainSeconds {
		t.Fatalf("mixed-tier train time %v >= full-tier %v", mixed.TotalTrainSeconds, full.TotalTrainSeconds)
	}
}

// TestTieredResumeBitIdentical checkpoints a mixed-tier run mid-way, resumes
// it, and requires the continuation to match the uninterrupted run bit for
// bit — the masked paths must be as resumable as the legacy ones.
func TestTieredResumeBitIdentical(t *testing.T) {
	build := func(rounds int, dir string) *Runner {
		clients, _, test, spec := testFederation(t, 4, 0.5)
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{
			Rounds: rounds, LocalEpochs: 1, LR: 0.1, Momentum: 0.5,
			TierDist: mustDist(t, "low:1,full:1"), Seed: 44, CheckpointDir: dir,
		}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	full := build(4, "")
	wantHist, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	head := build(2, dir)
	if _, err := head.Run(); err != nil {
		t.Fatal(err)
	}
	tail := build(4, dir)
	if round, err := tail.ResumeLatest(); err != nil || round != 2 {
		t.Fatalf("resume: round %d, err %v", round, err)
	}
	gotHist, err := tail.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantHist.Records {
		if wantHist.Records[i] != gotHist.Records[i] {
			t.Fatalf("round %d: uninterrupted %+v != resumed %+v",
				i+1, wantHist.Records[i], gotHist.Records[i])
		}
	}
	want, got := full.GlobalModel().StateTensors(), tail.GlobalModel().StateTensors()
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("state tensor %d differs after resume", i)
		}
	}
}

// TestTierResumeRefusedUnderEditedDistribution pins the refusal rule: a
// checkpoint written under one tier distribution must not restore into a
// runner configured with another — neither through the config fingerprint
// nor, for a hypothetical tag collision, through the explicit tier-spec
// check.
func TestTierResumeRefusedUnderEditedDistribution(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	build := func(dist string) *Runner {
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Rounds: 2, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 44}
		if dist != "" {
			cfg.TierDist = mustDist(t, dist)
		}
		r, err := NewRunner(cfg, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	tiered := build("low:1,full:1")
	if _, err := tiered.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := tiered.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.TierSpec != "full:1,low:1" {
		t.Fatalf("snapshot tier spec %q, want canonical \"full:1,low:1\"", snap.TierSpec)
	}

	for _, dist := range []string{"full:1", "low:1,full:2", ""} {
		edited := build(dist)
		if err := snap.RestoreInto(edited); !errors.Is(err, ErrConfig) {
			t.Fatalf("restore under edited distribution %q: err %v, want ErrConfig", dist, err)
		}
	}
	// Same rule set as strategy edits: even with an identical config tag the
	// explicit tier-spec comparison must refuse a drifted distribution.
	same := build("low:1,full:1")
	drifted := same.identity()
	drifted.TierSpec = "full:2,low:1"
	if err := drifted.check(snap); err == nil || !strings.Contains(err.Error(), "tier distribution") {
		t.Fatalf("tier-spec mismatch not refused explicitly: %v", err)
	}
	// And the happy path restores.
	if err := snap.RestoreInto(same); err != nil {
		t.Fatalf("restore under the identical distribution failed: %v", err)
	}
}
