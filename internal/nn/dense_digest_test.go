package nn_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/tensor"
)

// TestDenseParentDigest pins the dense layer at the width the TCP federation
// trains (a Hidden: 512 MLP, 567k parameters) to the commit before
// MatMulTransB chose which operand to transpose: the digest below was recorded
// by running this file on a clone of that commit, where every forward
// transposed the whole weight. It hashes, for two training steps at batch 16,
// the logits, the dx every group hands down (the input's included), every
// parameter's accumulated gradient (dW, db and the normalisation's) and every
// parameter after the SGD step, then an evaluation forward at batch 64 and at
// 128. Under the orientation rule the 512x512 weights take the transposed-batch
// side at all three batch sizes, the 64->512 stem at 16 only, and the 512->10
// classifier never, so both sides are inside the digest.
func TestDenseParentDigest(t *testing.T) {
	const want = "3c2075cfd20d8814"
	m, err := models.Build(models.Spec{Arch: models.ArchMLP, InputShape: []int{64}, NumClasses: 10, Hidden: 512, InitSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	names := models.GroupNames()
	groups := make([]*nn.Sequential, len(names))
	for i, name := range names {
		if groups[i], err = m.Group(name); err != nil {
			t.Fatal(err)
		}
	}
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: 0.05, Momentum: 0.5}, m.TrainableParams())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	hash := func(ts *tensor.Tensor) {
		for _, v := range ts.Data() {
			fmt.Fprintf(h, "%08x", math.Float32bits(v))
		}
	}
	rng := rand.New(rand.NewSource(43))
	batch := func(n int) *tensor.Tensor {
		x := tensor.New(n, 64)
		x.FillNormal(rng, 0, 1)
		return x
	}
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 10
	}
	var ls nn.LossScratch
	for step := 0; step < 2; step++ {
		logits := m.Forward(batch(16), true)
		hash(logits)
		_, dy, err := nn.SoftmaxCrossEntropy{}.LossInto(&ls, logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		m.ZeroGrads()
		for i := len(groups) - 1; i >= 0; i-- {
			dy = groups[i].Backward(dy, true)
			hash(dy)
		}
		for _, p := range m.Params() {
			hash(p.Grad())
		}
		sgd.Step()
		for _, p := range m.Params() {
			hash(p.W)
		}
	}
	hash(m.Forward(batch(64), false))
	hash(m.Forward(batch(128), false))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
