// WRN conv path: the paper's actual architecture (Wide ResNet 16-1) on
// image-shaped synthetic data, exercising the convolutional substrate —
// conv2d, batch-norm, residual blocks with projection shortcuts, global
// average pooling — including partial freezing for federated fine-tuning.
//
// The 64-dimensional synthetic observations are reshaped into 1×8×8 planes:
// the rendering's spatial structure is arbitrary but fixed, which is all a
// convnet needs to learn it.
//
// Run with:
//
//	go run ./examples/wrnconv
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
	const seed = 13
	suite, err := fedfteds.NewDomainSuite(seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	train, err := suite.Target10.GenerateBalanced(240, rng)
	if err != nil {
		return err
	}
	test, err := suite.Target10.GenerateBalanced(160, rng)
	if err != nil {
		return err
	}
	// Reshape flat 64-dim observations into 1×8×8 image planes.
	trainX, err := train.X.Reshape(train.Len(), 1, 8, 8)
	if err != nil {
		return err
	}
	testX, err := test.X.Reshape(test.Len(), 1, 8, 8)
	if err != nil {
		return err
	}
	train.X, test.X = trainX, testX

	model, err := fedfteds.BuildModel(fedfteds.ModelSpec{
		Arch:        fedfteds.ArchWRN,
		InputShape:  []int{1, 8, 8},
		NumClasses:  train.NumClasses,
		Depth:       16,
		WidthFactor: 1,
		InitSeed:    seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "WRN-16-1: %d parameters, %d forward FLOPs per sample\n",
		model.ParamCount(), model.ForwardFLOPsPerSample())

	hist, err := fedfteds.TrainCentralized(model, train, test, fedfteds.CentralConfig{
		Epochs: 3, BatchSize: 16, LR: 0.05, Momentum: 0.5, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after full training:       accuracy %.2f%%\n", 100*hist.BestAccuracy)

	// Partial fine-tuning on the conv path: freeze low+mid (the paper's
	// "fine-tuned from layer 3") and continue.
	if err := model.SetFinetunePart(fedfteds.FinetuneModerate); err != nil {
		return err
	}
	fmt.Fprintf(w, "trainable after freezing:  %d of %d parameters, train FLOPs %d/sample\n",
		model.TrainableParamCount(), model.ParamCount(), model.TrainFLOPsPerSample())
	hist2, err := fedfteds.TrainCentralized(model, train, test, fedfteds.CentralConfig{
		Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.5, Seed: seed + 1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after partial fine-tuning: accuracy %.2f%%\n", 100*hist2.BestAccuracy)
	return nil
}
