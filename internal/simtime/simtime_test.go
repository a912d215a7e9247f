package simtime

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/models"
)

func testModel(t *testing.T) *models.Model {
	t.Helper()
	m, err := models.Build(models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{16},
		NumClasses: 5,
		Hidden:     32,
		InitSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewDevices(t *testing.T) {
	if _, err := NewHeterogeneousDevices(3, -1, 0.5, rand.New(rand.NewSource(1))); !errors.Is(err, ErrSim) {
		t.Fatalf("expected ErrSim, got %v", err)
	}
}

func TestHeterogeneousDevicesSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	devs, err := NewHeterogeneousDevices(2000, 1e9, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	var logs []float64
	for _, d := range devs {
		if d.FLOPSRate <= 0 {
			t.Fatal("non-positive device rate")
		}
		logs = append(logs, math.Log(d.FLOPSRate/1e9))
	}
	var mean float64
	for _, l := range logs {
		mean += l
	}
	mean /= float64(len(logs))
	if math.Abs(mean) > 0.05 {
		t.Fatalf("log-space mean %v, want ~0 (median preserved)", mean)
	}
}

func TestClientRoundCostScalesWithWork(t *testing.T) {
	m := testModel(t)
	dev := Device{FLOPSRate: 1e9}

	full, err := ClientRoundCost(m, dev, 100, 100, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	tenth, err := ClientRoundCost(m, dev, 100, 10, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tenth.TrainSeconds >= full.TrainSeconds {
		t.Fatal("training 10% of data not cheaper than 100%")
	}
	ratio := full.TrainSeconds / tenth.TrainSeconds
	if math.Abs(ratio-10) > 1e-9 {
		t.Fatalf("train time ratio %v, want 10", ratio)
	}
}

func TestClientRoundCostSelectionOverhead(t *testing.T) {
	m := testModel(t)
	dev := Device{FLOPSRate: 1e9}
	eds, err := ClientRoundCost(m, dev, 100, 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	rds, err := ClientRoundCost(m, dev, 100, 10, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eds.SelectionSeconds <= 0 {
		t.Fatal("EDS selection pass has no cost")
	}
	if rds.SelectionSeconds != 0 {
		t.Fatal("RDS charged for a scoring pass")
	}
	if eds.Total() <= rds.Total() {
		t.Fatal("EDS total not above RDS total with equal training")
	}
	// The overhead is one forward pass: much cheaper than 5 training epochs.
	if eds.SelectionSeconds > rds.TrainSeconds {
		t.Fatalf("selection %vs exceeds full training %vs", eds.SelectionSeconds, rds.TrainSeconds)
	}
}

func TestClientRoundCostPartialFinetuneCheaper(t *testing.T) {
	m := testModel(t)
	dev := Device{FLOPSRate: 1e9}
	if err := m.SetFinetunePart(models.FinetuneFull); err != nil {
		t.Fatal(err)
	}
	full, err := ClientRoundCost(m, dev, 100, 100, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFinetunePart(models.FinetuneModerate); err != nil {
		t.Fatal(err)
	}
	part, err := ClientRoundCost(m, dev, 100, 100, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if part.TrainSeconds >= full.TrainSeconds {
		t.Fatal("partial fine-tuning not cheaper than full training")
	}
}

func TestClientRoundCostValidation(t *testing.T) {
	m := testModel(t)
	dev := Device{FLOPSRate: 1e9}
	if _, err := ClientRoundCost(m, dev, 10, 20, 5, 0); !errors.Is(err, ErrSim) {
		t.Fatalf("expected ErrSim for selected > local, got %v", err)
	}
	if _, err := ClientRoundCost(m, Device{}, 10, 5, 5, 0); !errors.Is(err, ErrSim) {
		t.Fatalf("expected ErrSim for zero-rate device, got %v", err)
	}
}

func TestFullParticipation(t *testing.T) {
	ids := []int{3, 1, 4}
	got := FullParticipation{}.Complete(ids, []float64{1, 2, 3}, nil)
	if len(got) != 3 {
		t.Fatalf("full participation dropped clients: %v", got)
	}
}

func TestFractionParticipation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = i
	}
	got := FractionParticipation{Fraction: 0.2}.Complete(ids, nil, rng)
	if len(got) != 20 {
		t.Fatalf("fraction 0.2 kept %d of 100", len(got))
	}
	seen := map[int]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatal("duplicate client id")
		}
		seen[id] = true
	}
	// At least one client always survives.
	one := FractionParticipation{Fraction: 0.001}.Complete(ids[:3], nil, rng)
	if len(one) != 1 {
		t.Fatalf("tiny fraction kept %d, want 1", len(one))
	}
}

func TestDeadlineStraggler(t *testing.T) {
	ids := []int{0, 1, 2, 3}
	times := []float64{1, 10, 2, 20}
	got := DeadlineStraggler{DeadlineSeconds: 5}.Complete(ids, times, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("deadline survivors %v, want [0 2]", got)
	}
	// All too slow: fastest survives.
	slow := DeadlineStraggler{DeadlineSeconds: 0.5}.Complete(ids, times, nil)
	if len(slow) != 1 || slow[0] != 0 {
		t.Fatalf("fastest-survivor fallback %v, want [0]", slow)
	}
}

func TestAccountantAccumulates(t *testing.T) {
	var a Accountant
	a.AddRound(RoundCost{SelectionSeconds: 1, TrainSeconds: 10})
	a.AddRound(RoundCost{SelectionSeconds: 2, TrainSeconds: 20})
	a.AddCommunication(100, 200)
	a.AddCommunication(50, 75)
	if a.SelectionSeconds() != 3 || a.TrainSeconds() != 30 || a.TotalSeconds() != 33 {
		t.Fatalf("accountant times %v %v %v", a.SelectionSeconds(), a.TrainSeconds(), a.TotalSeconds())
	}
	if a.UplinkBytes() != 150 || a.DownlinkBytes() != 275 {
		t.Fatalf("accountant bytes %d %d", a.UplinkBytes(), a.DownlinkBytes())
	}
}
