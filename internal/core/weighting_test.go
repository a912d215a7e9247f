package core

import (
	"math"
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

func TestWeightByLocalSizeEndToEnd(t *testing.T) {
	// A full run with local-size weighting must complete and learn; this
	// exercises the non-default aggregation path through Run.
	clients, _, test, spec := testFederation(t, 4, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := strategy.FedAvgWith(strategy.WeightByLocalSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Rounds: 4, LocalEpochs: 2, LR: 0.1, Momentum: 0.5,
		Selector: selection.Random{}, SelectFraction: 0.5,
		Strategy: strat, Seed: 31,
	}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hist.BestAccuracy <= 0.2 {
		t.Fatalf("local-size weighting run did not learn: %v", hist.BestAccuracy)
	}
}

func TestFinalRoundAlwaysEvaluated(t *testing.T) {
	// EvalEvery larger than the round count: only the final round evaluates.
	clients, _, test, spec := testFederation(t, 3, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Rounds: 3, LocalEpochs: 1, LR: 0.1, EvalEvery: 100, Seed: 32,
	}, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	curve := hist.Curve()
	if !math.IsNaN(curve[0]) || !math.IsNaN(curve[1]) {
		t.Fatalf("intermediate rounds evaluated: %v", curve)
	}
	if math.IsNaN(curve[2]) {
		t.Fatal("final round not evaluated")
	}
	if hist.FinalAccuracy != curve[2] {
		t.Fatalf("FinalAccuracy %v != last curve point %v", hist.FinalAccuracy, curve[2])
	}
}

func TestCommunicationScalesWithParticipants(t *testing.T) {
	run := func(n int) int64 {
		clients, _, test, spec := testFederation(t, n, 0.5)
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{Rounds: 2, LocalEpochs: 1, LR: 0.1, Seed: 33}, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return hist.TotalUplinkBytes
	}
	if two, four := run(2), run(4); four != 2*two {
		t.Fatalf("uplink for 4 clients %d, want exactly 2× the 2-client %d", four, two)
	}
}
