package models

import (
	"fmt"
	"math/rand"

	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
)

// buildMLP constructs the block MLP: three hidden blocks (low, mid, up),
// each Dense→BatchNorm→ReLU, plus a linear classifier. The mid and up blocks
// are residual so that freezing lower blocks leaves useful refinement
// capacity above, mirroring the WRN's structure. rng draws the weight
// initialization; nil builds the skeleton with zero weights (see build).
func buildMLP(spec Spec, rng *rand.Rand) ([]*nn.Sequential, error) {
	if len(spec.InputShape) != 1 || spec.InputShape[0] <= 0 {
		return nil, fmt.Errorf("%w: MLP input shape %v, want [features]", ErrSpec, spec.InputShape)
	}
	if spec.Hidden <= 0 {
		return nil, fmt.Errorf("%w: MLP hidden width %d", ErrSpec, spec.Hidden)
	}
	in := spec.InputShape[0]
	h := spec.Hidden

	low, err := mlpStem("low", in, h, rng)
	if err != nil {
		return nil, err
	}
	mid, err := mlpResBlock("mid", h, spec.DropoutRate, spec.InitSeed+1, rng)
	if err != nil {
		return nil, err
	}
	up, err := mlpResBlock("up", h, spec.DropoutRate, spec.InitSeed+2, rng)
	if err != nil {
		return nil, err
	}
	head, err := nn.NewDense("classifier", h, spec.NumClasses, rng)
	if err != nil {
		return nil, err
	}
	return []*nn.Sequential{
		low,
		mid,
		up,
		nn.NewSequential(GroupClassifier, head),
	}, nil
}

// mlpStem is Dense→BN→ReLU projecting the input into the hidden width.
func mlpStem(name string, in, h int, rng *rand.Rand) (*nn.Sequential, error) {
	fc, err := nn.NewDense(name+".fc", in, h, rng)
	if err != nil {
		return nil, err
	}
	bn, err := nn.NewBatchNorm(name+".bn", h)
	if err != nil {
		return nil, err
	}
	return nn.NewSequential(name, fc, bn, nn.NewReLU(name+".relu")), nil
}

// mlpResBlock is a residual block: x + (Dense→BN→ReLU[→Dropout])(x),
// followed by a ReLU on the sum.
func mlpResBlock(name string, h int, dropout float64, dropSeed int64, rng *rand.Rand) (*nn.Sequential, error) {
	fc, err := nn.NewDense(name+".fc", h, h, rng)
	if err != nil {
		return nil, err
	}
	bn, err := nn.NewBatchNorm(name+".bn", h)
	if err != nil {
		return nil, err
	}
	layers := []nn.Layer{fc, bn, nn.NewReLU(name + ".relu")}
	if dropout > 0 {
		d, err := nn.NewDropout(name+".drop", dropout, tensor.DeriveSeed(uint64(dropSeed)))
		if err != nil {
			return nil, err
		}
		layers = append(layers, d)
	}
	body := nn.NewSequential(name+".body", layers...)
	res := nn.NewResidual(name+".res", body, nil)
	return nn.NewSequential(name, res, nn.NewReLU(name+".out")), nil
}
