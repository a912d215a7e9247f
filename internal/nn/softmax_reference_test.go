package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

// The row-at-a-time loops the softmax, cross-entropy and entropy passes ran
// before they moved onto tensor's batch kernels, kept as the oracle of
// TestSoftmaxPassesMatchRowLoops with math.Exp and math.Log as tensor.Exp
// and tensor.Log, which equal them on an amd64 host with FMA.

func refSoftmaxRow(dst, src []float32, temperature float64) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range src {
		e := tensor.Exp(float64(v-maxv) / temperature)
		dst[j] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for j := range dst {
		dst[j] *= inv
	}
}

func refLogSoftmaxRow(dst, src []float32) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range src {
		sum += tensor.Exp(float64(v - maxv))
	}
	lse := float32(tensor.Log(sum)) + maxv
	for j, v := range src {
		dst[j] = v - lse
	}
}

func refLoss(logits []float32, labels []int, c int, rho float64) (float64, []float32) {
	n := len(labels)
	dlogits := make([]float32, n*c)
	scaled, logp := make([]float32, c), make([]float32, c)
	var total float64
	for i := 0; i < n; i++ {
		y := labels[i]
		for j, v := range logits[i*c : (i+1)*c] {
			scaled[j] = float32(float64(v) / rho)
		}
		refLogSoftmaxRow(logp, scaled)
		total -= float64(logp[y])
		invNRho := 1.0 / (float64(n) * rho)
		for j := range c {
			p := tensor.Exp(float64(logp[j]))
			ind := 0.0
			if j == y {
				ind = 1.0
			}
			dlogits[i*c+j] = float32((p - ind) * invNRho)
		}
	}
	return total / float64(n), dlogits
}

func refEntropyRows(probs []float32, c int) []float64 {
	out := make([]float64, len(probs)/c)
	for i := range out {
		var h float64
		for _, p := range probs[i*c : (i+1)*c] {
			if p > 0 {
				fp := float64(p)
				h -= float64(fp * tensor.Log(fp))
			}
		}
		out[i] = h
	}
	return out
}

// TestSoftmaxPassesMatchRowLoops holds Softmax, SoftmaxInto (one output
// tensor and scratch across batches of every shape), ShannonEntropyRows,
// tensor.SoftmaxEntropyRows, Loss, LossInto and Value to the row loops
// above, bit for bit, on batches with NaN of both signs, infinities, zeros,
// subnormals and far-apart logits planted. A NaN's payload may differ only where two
// NaNs can meet in one add: a row sum over two NaN or infinite logits, or
// the loss over two such rows.
func TestSoftmaxPassesMatchRowLoops(t *testing.T) {
	specials := []float32{float32(math.NaN()), math.Float32frombits(0xFFC00001), math.Float32frombits(0x7F800001),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 1e-40, -800, 3e38}
	rng := rand.New(rand.NewSource(55))
	var ws LossScratch
	var into *tensor.Tensor
	for trial := 0; trial < 60; trial++ {
		n, c := 1+rng.Intn(40), 1+rng.Intn(13)
		logits := tensor.New(n, c)
		for i := range logits.Data() {
			logits.Data()[i] = float32(rng.NormFloat64() * 8)
			if trial%2 == 1 && rng.Intn(16) == 0 {
				logits.Data()[i] = specials[rng.Intn(len(specials))]
			}
		}
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		rho := []float64{1, 0.5, 0.1, 2}[trial%4]
		// A row's NaN may carry either operand's payload where two NaNs meet
		// in one add (kernel.go's rule): rows with two NaNs or infinities.
		nanMeet := make([]bool, n)
		batchMeet, specialRows := false, 0
		for i := range n {
			k := 0
			for _, v := range logits.Data()[i*c : (i+1)*c] {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					k++
				}
			}
			nanMeet[i] = k > 1
			if k > 0 {
				specialRows++
			}
			batchMeet = batchMeet || k > 1
		}
		batchMeet = batchMeet || specialRows > 1
		// meets reports whether lane i of an output with per lanes a row (0:
		// one value for the batch) may carry either NaN's payload.
		meets := func(i, per int) bool {
			if per == 0 {
				return batchMeet
			}
			return nanMeet[i/per]
		}
		same32 := func(name string, got, want []float32, per int) {
			t.Helper()
			for i := range want {
				if math.IsNaN(float64(got[i])) && math.IsNaN(float64(want[i])) && meets(i, per) {
					continue
				}
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("trial %d %dx%d rho=%v: %s[%d] = %#x, row loop %#x", trial, n, c, rho, name, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
		same64 := func(name string, got, want []float64, per int) {
			t.Helper()
			for i := range want {
				if math.IsNaN(got[i]) && math.IsNaN(want[i]) && meets(i, per) {
					continue
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %dx%d rho=%v: %s[%d] = %#x, row loop %#x", trial, n, c, rho, name, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		probs := make([]float32, n*c)
		for i := range n {
			refSoftmaxRow(probs[i*c:(i+1)*c], logits.Data()[i*c:(i+1)*c], rho)
		}
		same32("Softmax", Softmax(logits, rho).Data(), probs, c)
		into = SoftmaxInto(&ws.softmax, into, logits, rho)
		same32("SoftmaxInto", into.Data(), probs, c)
		wantH := refEntropyRows(probs, c)
		same64("ShannonEntropyRows", ShannonEntropyRows(Softmax(logits, rho)), wantH, 1)
		h := make([]float64, n)
		tensor.SoftmaxEntropyRows(&ws.softmax, h, logits.Data(), c, rho)
		same64("SoftmaxEntropyRows", h, wantH, 1)

		loss := SoftmaxCrossEntropy{Temperature: rho}
		wantLoss, wantGrad := refLoss(logits.Data(), labels, c, rho)
		v, dl, err := loss.LossInto(&ws, logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		same64("LossInto loss", []float64{v}, []float64{wantLoss}, 0)
		same32("LossInto gradient", dl.Data(), wantGrad, c)
		v, dl, err = loss.Loss(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		same64("Loss loss", []float64{v}, []float64{wantLoss}, 0)
		same32("Loss gradient", dl.Data(), wantGrad, c)
		if v, err = loss.Value(logits, labels); err != nil {
			t.Fatal(err)
		}
		same64("Value", []float64{v}, []float64{wantLoss}, 0)
	}
}

// TestLossIntoAllocatesNothing checks that a warm LossInto, through one
// scratch, allocates nothing at temperature 1 and at a hardened one, nor
// does a warm SoftmaxInto given back its output tensor.
func TestLossIntoAllocatesNothing(t *testing.T) {
	logits := tensor.New(32, 10)
	logits.FillNormal(rand.New(rand.NewSource(1)), 0, 3)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	for _, rho := range []float64{0, 0.5} {
		var ws LossScratch
		loss := SoftmaxCrossEntropy{Temperature: rho}
		step := func() {
			if _, _, err := loss.LossInto(&ws, logits, labels); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Errorf("temperature %v: LossInto allocates %v times in steady state, want 0", rho, allocs)
		}
	}
	var ws tensor.SoftmaxScratch
	probs := SoftmaxInto(&ws, nil, logits, 0.1)
	if allocs := testing.AllocsPerRun(20, func() { probs = SoftmaxInto(&ws, probs, logits, 0.1) }); allocs != 0 {
		t.Errorf("SoftmaxInto allocates %v times in steady state, want 0", allocs)
	}
}
