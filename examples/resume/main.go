// Resume: interrupt a federated run and continue it bit-identically.
//
// The demo runs the same FedFT-EDS federation three ways: (1) straight
// through for 10 rounds, (2) killed after round 4 — simulated by a run whose
// round budget is 4 — leaving checkpoints behind, and (3) a fresh process
// resuming from the latest checkpoint to finish rounds 5–10. The resumed
// history and final model state match the uninterrupted run byte for byte:
// checkpoints carry the global model, the scheduler's utility-feedback
// state, the cost accounting and the history, and all per-round randomness
// is derived from (seed, round), so nothing drifts across the restart.
//
// Run with:
//
//	go run ./examples/resume
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	"fedfteds"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// buildWorld constructs the deterministic demo federation: domains, a
// pretrained global model and Dirichlet-partitioned clients. Both "processes"
// of the demo call it, exactly like a restarted binary would.
func buildWorld(seed int64, numClients int) (*fedfteds.Model, []*fedfteds.Client, *fedfteds.Dataset, error) {
	suite, err := fedfteds.NewDomainSuite(seed)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sourceData, err := suite.Source.GenerateBalanced(3000, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	pool, err := suite.Target10.GenerateBalanced(numClients*60, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	test, err := suite.Target10.GenerateBalanced(500, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	global, err := fedfteds.PretrainTransfer(fedfteds.ModelSpec{
		Arch:       fedfteds.ArchMLP,
		InputShape: pool.SampleShape(),
		NumClasses: pool.NumClasses,
		Hidden:     64,
		InitSeed:   seed,
	}, sourceData, fedfteds.CentralConfig{Epochs: 8, LR: 0.05, Momentum: 0.5, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	parts, err := fedfteds.DirichletPartition(pool.Y, numClients, 0.1, 5, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	devices, err := fedfteds.NewHeterogeneousDevices(numClients, 1e9, 0.35, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	clients := make([]*fedfteds.Client, numClients)
	for i, idxs := range parts {
		local, err := pool.Subset(idxs)
		if err != nil {
			return nil, nil, nil, err
		}
		clients[i] = &fedfteds.Client{ID: i, Data: local, Device: devices[i]}
	}
	return global, clients, test, nil
}

func run(w io.Writer) error {
	const (
		seed       = 7
		numClients = 8
		rounds     = 10
		killAfter  = 4
	)
	cfg := fedfteds.Config{
		Rounds:         rounds,
		LocalEpochs:    3,
		LR:             0.05,
		Momentum:       0.5,
		FinetunePart:   fedfteds.FinetuneModerate,
		Selector:       fedfteds.EntropySelector{Temperature: 0.1},
		SelectFraction: 0.5,
		Scheduler:      fedfteds.EntropyUtility{},
		CohortSize:     4,
		Seed:           seed,
	}

	// Reference: the uninterrupted run.
	global, clients, test, err := buildWorld(seed, numClients)
	if err != nil {
		return err
	}
	runner, err := fedfteds.NewRunner(cfg, global, clients, test)
	if err != nil {
		return err
	}
	full, err := runner.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "uninterrupted run: %d rounds, best accuracy %.2f%%\n", rounds, 100*full.BestAccuracy)

	// "Process one": checkpoints every round, killed after round 4.
	dir, err := os.MkdirTemp("", "fedfteds-resume-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	killedCfg := cfg
	killedCfg.Rounds = killAfter
	killedCfg.CheckpointDir = dir
	global1, clients1, test1, err := buildWorld(seed, numClients)
	if err != nil {
		return err
	}
	runner1, err := fedfteds.NewRunner(killedCfg, global1, clients1, test1)
	if err != nil {
		return err
	}
	if _, err := runner1.Run(); err != nil {
		return err
	}
	fmt.Fprintf(w, "interrupted after round %d; checkpoints in %s\n", killAfter, dir)

	// "Process two": a fresh world, resumed from the latest checkpoint.
	resumedCfg := cfg
	resumedCfg.CheckpointDir = dir
	global2, clients2, test2, err := buildWorld(seed, numClients)
	if err != nil {
		return err
	}
	runner2, err := fedfteds.NewRunner(resumedCfg, global2, clients2, test2)
	if err != nil {
		return err
	}
	at, err := runner2.ResumeLatest()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "resumed from round %d, finishing rounds %d-%d\n", at, at+1, rounds)
	resumed, err := runner2.Run()
	if err != nil {
		return err
	}

	// The resumed run is bit-identical to the uninterrupted one.
	for i, rec := range full.Records {
		r2 := resumed.Records[i]
		marker := "=="
		if math.Float64bits(rec.TestAccuracy) != math.Float64bits(r2.TestAccuracy) ||
			math.Float64bits(rec.MeanTrainLoss) != math.Float64bits(r2.MeanTrainLoss) {
			marker = "!! DIVERGED"
		}
		fmt.Fprintf(w, "round %2d: accuracy %5.2f%% / %5.2f%%  loss %.4f / %.4f  %s\n",
			rec.Round, 100*rec.TestAccuracy, 100*r2.TestAccuracy,
			rec.MeanTrainLoss, r2.MeanTrainLoss, marker)
	}
	identical := len(full.Records) == len(resumed.Records) &&
		math.Float64bits(full.BestAccuracy) == math.Float64bits(resumed.BestAccuracy) &&
		math.Float64bits(full.TotalTrainSeconds) == math.Float64bits(resumed.TotalTrainSeconds)
	for _, pair := range [][2]*fedfteds.Model{{global, global2}} {
		a, b := pair[0].StateTensors(), pair[1].StateTensors()
		for i := range a {
			if !a[i].Equal(b[i]) {
				identical = false
			}
		}
	}
	if !identical {
		return fmt.Errorf("resumed run diverged from the uninterrupted run")
	}
	fmt.Fprintln(w, "\nresumed history and final model state are bit-identical to the uninterrupted run")
	return nil
}
