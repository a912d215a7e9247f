// Benchmarks regenerating every table and figure of the paper (DESIGN.md
// maps each bench to its artifact). Each iteration executes the full
// experiment at ScaleSmoke so `go test -bench=.` finishes quickly; the
// headline numbers are attached as custom metrics. Paper-scale runs come
// from `go run ./cmd/fedsim -scale full`.
//
// The trailing kernel benchmarks time substrate primitives (matmul, one MLP
// training step, the 512-wide dense step, the convolution layer, the ReLU
// loops, one FedFT-EDS client round, entropy selection) at realistic sizes;
// matmul, the two training steps, the convolution and the client round back
// CI's allocation guard. Whole rounds, the WRN forward pass and the server
// fold are measured by the performance ledger (bench/, BENCHMARK.json).
package fedfteds_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/core"
	"fedfteds/internal/experiments"
	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/tensor"
)

// benchEnv builds a smoke-scale experiment environment.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv(experiments.ScaleSmoke, 1)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func BenchmarkTable1Pretraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable1(env)
		if err != nil {
			b.Fatal(err)
		}
		// Cells run alpha-major: none, close source, broad source at Diri(0.1) first.
		b.ReportMetric(100*res.Cells[0].Hist.BestAccuracy, "nopt_acc01_%")
		b.ReportMetric(100*res.Cells[2].Hist.BestAccuracy, "broadpt_acc01_%")
	}
}

func BenchmarkTable2CloseDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable2(env)
		if err != nil {
			b.Fatal(err)
		}
		if eds, ok := res.Get("FedFT-EDS (10%)", "synthc10", 0.1); ok {
			b.ReportMetric(100*eds.Hist.BestAccuracy, "eds10_acc_%")
		}
		if avg, ok := res.Get("FedAvg", "synthc10", 0.1); ok {
			b.ReportMetric(100*avg.Hist.BestAccuracy, "fedavg_acc_%")
		}
	}
}

func BenchmarkFigure5LearningCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable2(env)
		if err != nil {
			b.Fatal(err)
		}
		if out := res.RenderFigure5("synthc10", 0.1); out == "" {
			b.Fatal("empty figure 5")
		}
	}
}

func BenchmarkFigure6LearningEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable2(env)
		if err != nil {
			b.Fatal(err)
		}
		eds, ok1 := res.Get("FedFT-EDS (10%)", "synthc10", 0.1)
		avg, ok2 := res.Get("FedAvg", "synthc10", 0.1)
		if !ok1 || !ok2 {
			b.Fatal("missing cells")
		}
		edsEff, err1 := eds.Hist.LearningEfficiency()
		avgEff, err2 := avg.Hist.LearningEfficiency()
		if err1 == nil && err2 == nil && avgEff > 0 {
			b.ReportMetric(edsEff/avgEff, "eds_vs_fedavg_efficiency_x")
		}
	}
}

func BenchmarkTable3Stragglers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable3(env)
		if err != nil {
			b.Fatal(err)
		}
		if eds, ok := res.Get("FedFT-EDS (50%)", "synthc10", 0.1); ok {
			b.ReportMetric(100*eds.Hist.BestAccuracy, "eds50_acc_%")
		}
		if ten, ok := res.Get("FedAvg 10% c.p.", "synthc10", 0.1); ok {
			b.ReportMetric(100*ten.Hist.BestAccuracy, "fedavg10cp_acc_%")
		}
	}
}

func BenchmarkFigure7EfficiencyAt100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable3(env)
		if err != nil {
			b.Fatal(err)
		}
		if out := res.RenderFigure7("synthc10", 0.1); out == "" {
			b.Fatal("empty figure 7")
		}
	}
}

func BenchmarkFigure8CurvesParticipation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable3(env)
		if err != nil {
			b.Fatal(err)
		}
		if out := res.RenderFigure8("synthc10", 0.1); out == "" {
			b.Fatal("empty figure 8")
		}
	}
}

func BenchmarkFigure9CurvesSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable3(env)
		if err != nil {
			b.Fatal(err)
		}
		if out := res.RenderFigure9("synthc10", 0.5); out == "" {
			b.Fatal("empty figure 9")
		}
	}
}

func BenchmarkTable4CrossDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunTable4(env)
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Get("FedFT-EDS (50%)", env.Suite.Far.Spec.Name, 0.1); ok {
			b.ReportMetric(100*row.Hist.BestAccuracy, "eds50_far_acc_%")
		}
	}
}

func BenchmarkFigure1EntropyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunFig1(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Medians[0], "median_rho1")
		b.ReportMetric(res.Medians[2], "median_rho01")
	}
}

func BenchmarkFigure2CKAHeatmapsDir01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunCKA(env, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Averages[1][models.GroupUp], "pt_up_cka")
	}
}

func BenchmarkFigure3CKAHeatmapsDir05(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunCKA(env, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Averages[1][models.GroupUp], "pt_up_cka")
	}
}

func BenchmarkFigure4CKAAverages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunCKA(env, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Averages[0][models.GroupUp], "nopt_up_cka")
		b.ReportMetric(res.Averages[1][models.GroupUp], "pt_up_cka")
	}
}

func BenchmarkFigure10aFinetunePart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunFig10a(env)
		if err != nil {
			b.Fatal(err)
		}
		// EDS and RDS alternate per part: full, large, moderate, classifier.
		b.ReportMetric(100*res.Cells[6].Hist.BestAccuracy, "classifier_eds_acc_%")
		b.ReportMetric(100*res.Cells[0].Hist.BestAccuracy, "full_eds_acc_%")
	}
}

func BenchmarkFigure10bHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunFig10b(env)
		if err != nil {
			b.Fatal(err)
		}
		// EDS and RDS per alpha: 0.01, 0.05, 0.1, 0.5, 1.
		b.ReportMetric(100*res.Cells[0].Hist.BestAccuracy, "eds_alpha001_acc_%")
		b.ReportMetric(100*res.Cells[8].Hist.BestAccuracy, "eds_alpha1_acc_%")
	}
}

func BenchmarkFigure10cTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunFig10c(env)
		if err != nil {
			b.Fatal(err)
		}
		// The RDS baseline, then EDS at ρ = 0.01, 0.1, ...
		b.ReportMetric(100*res.Cells[2].Hist.BestAccuracy, "eds_rho01_acc_%")
		b.ReportMetric(100*res.Cells[0].Hist.BestAccuracy, "rds_acc_%")
	}
}

func BenchmarkAblationBatchEntropy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunAblationBatchEntropy(env)
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Get("sample-level EDS", "synthc10", 0.1); ok {
			b.ReportMetric(100*row.Hist.BestAccuracy, "sample_eds_acc_%")
		}
	}
}

func BenchmarkAblationAggWeighting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunAblationAggWeighting(env)
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Get("selected", "synthc10", 0.1); ok {
			b.ReportMetric(100*row.Hist.BestAccuracy, "selected_weighting_acc_%")
		}
	}
}

func BenchmarkAblationAcquisition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		res, err := experiments.RunAblationAcquisition(env)
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Get("entropy (hardened ρ=0.1)", "synthc10", 0.1); ok {
			b.ReportMetric(100*row.Hist.BestAccuracy, "hardened_entropy_acc_%")
		}
	}
}

// Substrate kernel benchmarks.

func BenchmarkKernelMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(256, 256)
	y := tensor.New(256, 256)
	x.FillNormal(rng, 0, 1)
	y.FillNormal(rng, 0, 1)
	dst := tensor.New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.MatMul(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelMLPTrainStep(b *testing.B) {
	m, err := models.Build(models.Spec{
		Arch:       models.ArchMLP,
		InputShape: []int{64},
		NumClasses: 10,
		Hidden:     64,
		InitSeed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(32, 64)
	x.FillNormal(rng, 0, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: 0.05, Momentum: 0.5}, m.TrainableParams())
	if err != nil {
		b.Fatal(err)
	}
	// The full per-batch hot path of a local round: forward, loss gradient,
	// backward, optimizer step — allocation-free in steady state (guarded by
	// allocs_test.go).
	loss := nn.SoftmaxCrossEntropy{}
	var ls nn.LossScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(x, true)
		_, dl, err := loss.LossInto(&ls, logits, labels)
		if err != nil {
			b.Fatal(err)
		}
		m.Backward(dl)
		sgd.Step()
	}
}

// BenchmarkKernelDenseStep times the dense layers at the width the TCP
// federation trains — the Hidden: 512 MLP, 567k parameters — one operation
// being what a fedclient round and the server's evaluation make of them: a
// training forward + backward + SGD step at batch 16, and an evaluation
// forward at 64 and at 128 on a model that only ever evaluates. Every
// MatMulTransB here is on the transposed-batch side of its orientation rule
// except the classifier's and the stem's at the evaluation batches.
// Allocation-free in steady state (CI's kernel alloc guard watches it).
func BenchmarkKernelDenseStep(b *testing.B) {
	spec := models.Spec{Arch: models.ArchMLP, InputShape: []int{64}, NumClasses: 10, Hidden: 512, InitSeed: 1}
	m, err := models.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	global, err := models.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	batch := func(n int) *tensor.Tensor {
		x := tensor.New(n, 64)
		x.FillNormal(rng, 0, 1)
		return x
	}
	x16, x64, x128 := batch(16), batch(64), batch(128)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 10
	}
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: 0.05, Momentum: 0.5}, m.TrainableParams())
	if err != nil {
		b.Fatal(err)
	}
	loss := nn.SoftmaxCrossEntropy{}
	var ls nn.LossScratch
	b.ReportAllocs()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer() // pass -1 sized every workspace
		}
		_, dl, err := loss.LossInto(&ls, m.Forward(x16, true), labels)
		if err != nil {
			b.Fatal(err)
		}
		m.Backward(dl)
		sgd.Step()
		global.Forward(x64, false)
		global.Forward(x128, false)
	}
}

// BenchmarkKernelConvStep times the convolution layer at every shape WRN-16-1
// gives it — the 3x3 body convolution of each stage, the stride-2 3x3 and the
// 1x1 projection of a stage transition — one operation being, per shape, a
// training forward + backward at the training batch of 16 and an evaluation
// forward at the evaluation batch of 128 on a layer that only ever evaluates,
// as the global model does. Allocation-free in steady state (CI's kernel
// alloc guard watches it).
func BenchmarkKernelConvStep(b *testing.B) {
	type step struct {
		layer *nn.Conv2D
		x, dy *tensor.Tensor
	}
	rng := rand.New(rand.NewSource(9))
	var train, eval []step
	for _, s := range []struct{ inC, outC, k, stride, size int }{
		{16, 16, 3, 1, 8}, {32, 32, 3, 1, 4}, {64, 64, 3, 1, 2}, {16, 32, 3, 2, 8}, {16, 32, 1, 2, 8},
	} {
		for _, n := range []int{16, 128} {
			c, err := nn.NewConv2D("c", s.inC, s.outC, s.k, nn.ConvOpts{Stride: s.stride, Padding: s.k / 2, NoBias: true}, rng)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(n, s.inC, s.size, s.size)
			x.FillNormal(rng, 0, 1)
			if n == 128 {
				eval = append(eval, step{layer: c, x: x})
				continue
			}
			dy := tensor.New(c.Forward(x, true).Shape()...)
			dy.FillNormal(rng, 0, 1)
			train = append(train, step{layer: c, x: x, dy: dy})
		}
	}
	b.ReportAllocs()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer() // pass -1 sized every workspace
		}
		for _, s := range train {
			s.layer.Forward(s.x, true)
			s.layer.Backward(s.dy, true)
		}
		for _, s := range eval {
			s.layer.Forward(s.x, false)
		}
	}
}

// BenchmarkKernelReLU times the element-wise activation on sign-random inputs
// (the case a data-dependent branch mispredicts half the time), forward plus
// backward, at a dense and a convolutional shape, in both modes — the layer
// has one rule, so train and eval must cost the same.
func BenchmarkKernelReLU(b *testing.B) {
	for _, shape := range [][]int{{64, 64}, {16, 16, 8, 8}} {
		for _, train := range []bool{true, false} {
			b.Run(fmt.Sprintf("%v/train=%v", shape, train), func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				x, dy := tensor.New(shape...), tensor.New(shape...)
				x.FillNormal(rng, 0, 1)
				dy.FillNormal(rng, 0, 1)
				r := nn.NewReLU("relu")
				b.SetBytes(int64(4 * x.Len()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Forward(x, train)
					r.Backward(dy, true)
				}
			})
		}
	}
}

// BenchmarkKernelClientRoundEDS times the paper's client round on a pooled
// replica — FedFT-EDS(50%, moderate), E = 5, one 56-sample client — through
// the only door to the pool, a Runner round: rebind, one frozen-prefix pass,
// entropy selection on the features, five epochs on the selected half, the
// fold of that one update. What it allocates per round is the selector's
// scoring buffers and the round's bookkeeping; the feature pass and the
// epochs themselves are pinned to zero by internal/core's AllocsPerRun test.
func BenchmarkKernelClientRoundEDS(b *testing.B) {
	env := benchEnv(b)
	rng := rand.New(rand.NewSource(5))
	local, err := env.Suite.Target10.GenerateBalanced(56, rng)
	if err != nil {
		b.Fatal(err)
	}
	test, err := env.Suite.Target10.GenerateBalanced(10, rng)
	if err != nil {
		b.Fatal(err)
	}
	model, err := env.FreshModel(env.Suite.Target10)
	if err != nil {
		b.Fatal(err)
	}
	clients := []*core.Client{{ID: 0, Data: local, Device: simtime.Device{FLOPSRate: 1e9}}}
	runner, err := core.NewRunner(core.Config{
		Rounds: b.N, LocalEpochs: 5, BatchSize: 16, LR: 0.05, Momentum: 0.5,
		FinetunePart: models.FinetuneModerate, Selector: selection.Entropy{Temperature: 0.1},
		SelectFraction: 0.5, EvalEvery: math.MaxInt32, Parallelism: 1, Seed: 6,
	}, model, clients, test)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := runner.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkKernelEntropySelection(b *testing.B) {
	env := benchEnv(b)
	fed, err := env.BuildFederation(env.Suite.Target10, 2, 0.5, 999)
	if err != nil {
		b.Fatal(err)
	}
	model, err := env.FreshModel(env.Suite.Target10)
	if err != nil {
		b.Fatal(err)
	}
	sel := selection.Entropy{Temperature: 0.1}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(model, fed.Clients[0].Data, 0.5, rng); err != nil {
			b.Fatal(err)
		}
	}
}
