// Straggler scenario (paper Table III, scaled down): a large client pool
// where the standard FedAvg workload makes slow devices drop out, versus
// FedFT-EDS whose reduced workload lets every device participate.
//
// The example runs three FedAvg participation levels (100%, 20%, 10%) and
// FedFT-EDS with full participation, then compares accuracy, total client
// compute time, and the paper's learning-efficiency metric. It also
// demonstrates the deadline-based straggler policy, where participation
// emerges from each device's projected round time instead of being fixed,
// and finishes with a distributed kill-a-client scenario: the same wire
// protocol cmd/fedserver speaks, run in-process over pipes, where one
// client crashes mid-round and the quorum-based round engine completes the
// remaining rounds without it.
//
// Run with:
//
//	go run ./examples/straggler
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"fedfteds"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		seed       = 23
		numClients = 30
	)
	suite, err := fedfteds.NewDomainSuite(seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	sourceData, err := suite.Source.GenerateBalanced(4000, rng)
	if err != nil {
		return err
	}
	pool, err := suite.Target10.GenerateBalanced(numClients*50, rng)
	if err != nil {
		return err
	}
	test, err := suite.Target10.GenerateBalanced(600, rng)
	if err != nil {
		return err
	}
	spec := fedfteds.ModelSpec{
		Arch:       fedfteds.ArchMLP,
		InputShape: pool.SampleShape(),
		NumClasses: pool.NumClasses,
		Hidden:     64,
		InitSeed:   seed,
	}
	pretrained, err := fedfteds.PretrainTransfer(spec, sourceData, fedfteds.CentralConfig{
		Epochs: 10, LR: 0.05, Momentum: 0.5, Seed: seed,
	})
	if err != nil {
		return err
	}

	parts, err := fedfteds.DirichletPartition(pool.Y, numClients, 0.1, 5, rng)
	if err != nil {
		return err
	}
	// A strongly heterogeneous device population: some devices are 3-4×
	// slower than the median — the stragglers.
	devices, err := fedfteds.NewHeterogeneousDevices(numClients, 1e9, 0.6, rng)
	if err != nil {
		return err
	}
	clients := make([]*fedfteds.Client, numClients)
	for i, idxs := range parts {
		local, err := pool.Subset(idxs)
		if err != nil {
			return err
		}
		clients[i] = &fedfteds.Client{ID: i, Data: local, Device: devices[i]}
	}

	type scenario struct {
		name      string
		part      fedfteds.FinetunePart
		selector  fedfteds.Selector
		fraction  float64
		straggler fedfteds.StragglerPolicy
	}
	scenarios := []scenario{
		{name: "FedAvg 100% c.p.", part: fedfteds.FinetuneFull, selector: fedfteds.AllSelector{}, fraction: 1},
		{name: "FedAvg 20% c.p.", part: fedfteds.FinetuneFull, selector: fedfteds.AllSelector{}, fraction: 1,
			straggler: fedfteds.FractionParticipation{Fraction: 0.2}},
		{name: "FedAvg 10% c.p.", part: fedfteds.FinetuneFull, selector: fedfteds.AllSelector{}, fraction: 1,
			straggler: fedfteds.FractionParticipation{Fraction: 0.1}},
		{name: "FedFT-EDS (50%)", part: fedfteds.FinetuneModerate,
			selector: fedfteds.EntropySelector{Temperature: 0.1}, fraction: 0.5},
	}

	simulate := func(sc scenario) (fedfteds.History, error) {
		global, err := pretrained.Clone()
		if err != nil {
			return fedfteds.History{}, err
		}
		runner, err := fedfteds.NewRunner(fedfteds.Config{
			Rounds:         12,
			LocalEpochs:    5,
			LR:             0.05,
			Momentum:       0.5,
			FinetunePart:   sc.part,
			Selector:       sc.selector,
			SelectFraction: sc.fraction,
			Straggler:      sc.straggler,
			Seed:           seed,
		}, global, clients, test)
		if err != nil {
			return fedfteds.History{}, err
		}
		return runner.Run()
	}

	fmt.Printf("%-18s %-10s %-12s %-12s\n", "method", "best acc", "client time", "efficiency")
	for _, sc := range scenarios {
		hist, err := simulate(sc)
		if err != nil {
			return err
		}
		eff, err := hist.LearningEfficiency()
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %8.2f%% %10.1fs %9.2f %%/s\n",
			sc.name, 100*hist.BestAccuracy, hist.TotalTrainSeconds, eff)
	}

	// Deadline-based stragglers: participation emerges from device speed.
	// Under a tight round deadline, full FedAvg loses its slow devices while
	// FedFT-EDS's lighter rounds fit almost everywhere.
	fmt.Println("\nwith a 40-millisecond round deadline instead of fixed participation:")
	for _, sc := range []scenario{
		{name: "FedAvg + deadline", part: fedfteds.FinetuneFull, selector: fedfteds.AllSelector{}, fraction: 1,
			straggler: fedfteds.DeadlineStraggler{DeadlineSeconds: 0.04}},
		{name: "FedFT-EDS + deadline", part: fedfteds.FinetuneModerate,
			selector: fedfteds.EntropySelector{Temperature: 0.1}, fraction: 0.5,
			straggler: fedfteds.DeadlineStraggler{DeadlineSeconds: 0.04}},
	} {
		hist, err := simulate(sc)
		if err != nil {
			return err
		}
		var avgParticipants float64
		for _, rec := range hist.Records {
			avgParticipants += float64(rec.Participants)
		}
		avgParticipants /= float64(len(hist.Records))
		fmt.Printf("%-22s best %.2f%%, avg %.1f of %d clients finish each round\n",
			sc.name, 100*hist.BestAccuracy, avgParticipants, numClients)
	}

	return runDistributed(pretrained, clients, test, seed)
}

// runDistributed replays the straggler story on the real wire protocol: the
// server loop and client round cmd/fedserver and cmd/fedclient run, here
// in-process over pipe transports, where client 2 crashes while a round is in
// flight. The quorum-based round engine drops it and the remaining clients
// finish the run; the server logs one line per round.
func runDistributed(pretrained *fedfteds.Model, clients []*fedfteds.Client, test *fedfteds.Dataset, seed int64) error {
	const (
		distClients = 6
		distRounds  = 6
		killRound   = 3 // client 2 dies while round 3 is in flight
	)
	// Server and clients narrate through the log package; fold that into
	// this example's own output.
	log.SetOutput(os.Stdout)
	log.SetFlags(0)
	fmt.Println("\ndistributed mode (same server loop and client round as fedserver/fedclient, in-process):")
	fmt.Printf("client 2 is killed during round %d; quorum 0.5 keeps the run alive:\n", killRound)

	global, err := pretrained.Clone()
	if err != nil {
		return err
	}
	if err := global.SetFinetunePart(fedfteds.FinetuneModerate); err != nil {
		return err
	}
	lst := fedfteds.NewPipeListener(distClients)
	var wg sync.WaitGroup
	for i := 0; i < distClients; i++ {
		replica, err := global.Clone()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := fedfteds.JoinParticipant(lst.ClientSide(id), fedfteds.ParticipantConfig{
				ID: id, NumClients: distClients, Seed: seed, Temperature: 0.1,
			}, replica, clients[id])
			if err == nil {
				err = client.Run(func(rs fedfteds.RoundStart) error {
					if id == 2 && rs.Round == killRound {
						return fmt.Errorf("crashing during round %d", rs.Round)
					}
					return nil
				}, nil)
			}
			if err != nil {
				log.Printf("client %d: %v", id, err)
			}
		}(i)
	}

	hist, err := fedfteds.ServeFederation(fedfteds.ServerConfig{
		NumClients:    distClients,
		Rounds:        distRounds,
		Fraction:      0.5,
		Epochs:        2,
		Seed:          seed,
		Quorum:        0.5,
		RoundDeadline: 30 * time.Second, // safety net; the crash is what this demo exercises
		Strat:         fedfteds.FedAvgStrategy(),
	}, lst, global, test)
	if err != nil {
		return err
	}
	wg.Wait()
	fmt.Printf("final accuracy %.2f%% after %d rounds, %.1fs of client compute, %d KiB uplink\n",
		100*hist.FinalAccuracy, len(hist.Records), hist.TotalTrainSeconds, hist.TotalUplinkBytes/1024)
	return nil
}
