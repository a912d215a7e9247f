// Quickstart: the smallest complete FedFT-EDS run.
//
// It builds a synthetic domain suite, pretrains a global model on the source
// domain, partitions a 10-class target across 8 clients with Dirichlet(0.1)
// label skew, and runs federated fine-tuning with entropy-based data
// selection — clients train only the upper part of the model on the 50% most
// uncertain local samples each round.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"fedfteds"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const (
		seed       = 7
		numClients = 8
		alpha      = 0.1 // strong non-IID
	)

	// 1. Synthetic domains: a broad source for pretraining and a 10-class
	// downstream target sharing the same low-level structure.
	suite, err := fedfteds.NewDomainSuite(seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	sourceData, err := suite.Source.GenerateBalanced(4000, rng)
	if err != nil {
		return err
	}
	pool, err := suite.Target10.GenerateBalanced(numClients*60, rng)
	if err != nil {
		return err
	}
	test, err := suite.Target10.GenerateBalanced(600, rng)
	if err != nil {
		return err
	}

	// 2. Pretrain the global model on the source domain and transfer the
	// feature extractor (paper Sec. III-B).
	spec := fedfteds.ModelSpec{
		Arch:       fedfteds.ArchMLP,
		InputShape: pool.SampleShape(),
		NumClasses: pool.NumClasses,
		Hidden:     64,
		InitSeed:   seed,
	}
	global, err := fedfteds.PretrainTransfer(spec, sourceData, fedfteds.CentralConfig{
		Epochs: 10, LR: 0.05, Momentum: 0.5, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "pretrained the global model on", suite.Source.Spec.Name)

	// 3. Partition the target data across clients with Dirichlet label skew
	// and attach heterogeneous device speeds.
	parts, err := fedfteds.DirichletPartition(pool.Y, numClients, alpha, 5, rng)
	if err != nil {
		return err
	}
	devices, err := fedfteds.NewHeterogeneousDevices(numClients, 1e9, 0.35, rng)
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
		fmt.Fprintf(w, "client %d: %d samples, label histogram %v\n", i, local.Len(), local.ClassHistogram())
	}

	// 4. Run FedFT-EDS: partial fine-tuning from the "up" group, entropy
	// selection with hardened softmax (ρ = 0.1), 50% of local data.
	runner, err := fedfteds.NewRunner(fedfteds.Config{
		Rounds:         12,
		LocalEpochs:    5,
		LR:             0.05,
		Momentum:       0.5,
		FinetunePart:   fedfteds.FinetuneModerate,
		Selector:       fedfteds.EntropySelector{Temperature: 0.1},
		SelectFraction: 0.5,
		Seed:           seed,
	}, global, clients, test)
	if err != nil {
		return err
	}
	hist, err := runner.Run()
	if err != nil {
		return err
	}

	for _, rec := range hist.Records {
		fmt.Fprintf(w, "round %2d: accuracy %5.2f%%  (cumulative client time %6.1fs, uplink %d KiB)\n",
			rec.Round, 100*rec.TestAccuracy, rec.CumTrainSeconds, rec.CumUplinkBytes/1024)
	}
	eff, err := hist.LearningEfficiency()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nbest accuracy %.2f%%, learning efficiency %.2f %%/s\n", 100*hist.BestAccuracy, eff)
	return nil
}
