package models

import (
	"fmt"
	"math/rand"

	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
)

// buildWRN constructs the Wide ResNet WRN-d-k of Zagoruyko & Komodakis with
// pre-activation residual blocks, as used in the paper (WRN-16-1).
//
// Layout for depth d = 6n+4 and width factor k:
//
//	conv3×3(inC→16)                                  — stem (in "low")
//	group1: n blocks, width 16k, stride 1            — "low"
//	group2: n blocks, width 32k, stride 2            — "mid"
//	group3: n blocks, width 64k, stride 2, BN-ReLU-GAP — "up"
//	linear(64k → classes)                            — "classifier"
//
// rng draws the weight initialization; nil builds the skeleton with zero
// weights (see build).
func buildWRN(spec Spec, rng *rand.Rand) ([]*nn.Sequential, error) {
	if len(spec.InputShape) != 3 {
		return nil, fmt.Errorf("%w: WRN input shape %v, want [C H W]", ErrSpec, spec.InputShape)
	}
	if spec.Depth < 10 || (spec.Depth-4)%6 != 0 {
		return nil, fmt.Errorf("%w: WRN depth %d, want 6n+4 (n>=1)", ErrSpec, spec.Depth)
	}
	k := spec.WidthFactor
	if k <= 0 {
		return nil, fmt.Errorf("%w: WRN width factor %d", ErrSpec, k)
	}
	n := (spec.Depth - 4) / 6
	inC := spec.InputShape[0]
	widths := []int{16, 16 * k, 32 * k, 64 * k}

	stem, err := nn.NewConv2D("stem.conv", inC, widths[0], 3, nn.ConvOpts{Padding: 1, NoBias: true}, rng)
	if err != nil {
		return nil, err
	}

	g1, err := wrnGroup("low.g1", n, widths[0], widths[1], 1, spec, rng)
	if err != nil {
		return nil, err
	}
	low := nn.NewSequential(GroupLow, append([]nn.Layer{stem}, g1...)...)

	g2, err := wrnGroup("mid.g2", n, widths[1], widths[2], 2, spec, rng)
	if err != nil {
		return nil, err
	}
	mid := nn.NewSequential(GroupMid, g2...)

	g3, err := wrnGroup("up.g3", n, widths[2], widths[3], 2, spec, rng)
	if err != nil {
		return nil, err
	}
	bnFinal, err := nn.NewBatchNorm("up.bn", widths[3])
	if err != nil {
		return nil, err
	}
	upLayers := append(g3, bnFinal, nn.NewReLU("up.relu"), nn.NewGlobalAvgPool("up.gap"))
	up := nn.NewSequential(GroupUp, upLayers...)

	head, err := nn.NewDense("classifier", widths[3], spec.NumClasses, rng)
	if err != nil {
		return nil, err
	}
	return []*nn.Sequential{low, mid, up, nn.NewSequential(GroupClassifier, head)}, nil
}

// wrnGroup builds n pre-activation residual blocks; the first may change
// width/stride and then uses a 1×1 projection shortcut.
func wrnGroup(name string, n, inC, outC, stride int, spec Spec, rng *rand.Rand) ([]nn.Layer, error) {
	layers := make([]nn.Layer, 0, n)
	for b := 0; b < n; b++ {
		blkIn, blkStride := outC, 1
		if b == 0 {
			blkIn, blkStride = inC, stride
		}
		blk, err := wrnBlock(fmt.Sprintf("%s.b%d", name, b), blkIn, outC, blkStride, spec, rng)
		if err != nil {
			return nil, err
		}
		layers = append(layers, blk)
	}
	return layers, nil
}

// wrnBlock is a pre-activation basic block:
// BN-ReLU-conv3×3[-dropout]-BN-ReLU-conv3×3, plus identity or 1×1 projection.
func wrnBlock(name string, inC, outC, stride int, spec Spec, rng *rand.Rand) (nn.Layer, error) {
	bn1, err := nn.NewBatchNorm(name+".bn1", inC)
	if err != nil {
		return nil, err
	}
	conv1, err := nn.NewConv2D(name+".conv1", inC, outC, 3, nn.ConvOpts{Stride: stride, Padding: 1, NoBias: true}, rng)
	if err != nil {
		return nil, err
	}
	bn2, err := nn.NewBatchNorm(name+".bn2", outC)
	if err != nil {
		return nil, err
	}
	conv2, err := nn.NewConv2D(name+".conv2", outC, outC, 3, nn.ConvOpts{Padding: 1, NoBias: true}, rng)
	if err != nil {
		return nil, err
	}
	bodyLayers := []nn.Layer{bn1, nn.NewReLU(name + ".relu1"), conv1}
	if spec.DropoutRate > 0 {
		d, err := nn.NewDropout(name+".drop", spec.DropoutRate, tensor.DeriveSeed(uint64(spec.InitSeed), uint64(len(name))))
		if err != nil {
			return nil, err
		}
		bodyLayers = append(bodyLayers, d)
	}
	bodyLayers = append(bodyLayers, bn2, nn.NewReLU(name+".relu2"), conv2)
	body := nn.NewSequential(name+".body", bodyLayers...)

	var shortcut *nn.Sequential
	if inC != outC || stride != 1 {
		proj, err := nn.NewConv2D(name+".proj", inC, outC, 1, nn.ConvOpts{Stride: stride, NoBias: true}, rng)
		if err != nil {
			return nil, err
		}
		shortcut = nn.NewSequential(name+".shortcut", proj)
	}
	return nn.NewResidual(name, body, shortcut), nil
}
