package nn

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fedfteds/internal/tensor"
)

// convBuffersAtLeast counts the float32 buffers of at least elems elements the
// layer holds, whatever the fields are called: its tensors and its slices.
func convBuffersAtLeast(c *Conv2D, elems int) int {
	count := 0
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Type() == reflect.TypeOf((*tensor.Tensor)(nil)) && !f.IsNil() {
			f = f.Elem().FieldByName("data")
		}
		if f.Type() == reflect.TypeOf([]float32(nil)) && f.Cap() >= elems {
			count++
		}
	}
	return count
}

// TestConvEvalKeepsNoUnpackedBatch holds the layer to what it may keep: a
// forward that nothing will be back-propagated through — evaluation, or a
// frozen layer — leaves no buffer the size of the unpacked batch behind (the
// global model used to keep 4.7 MB per 16-channel layer after evaluating 128
// samples), a training forward leaves exactly one (backward's dW reads it),
// and no call leaves the caller's own batch or gradient reachable.
func TestConvEvalKeepsNoUnpackedBatch(t *testing.T) {
	const n, ch, size = 128, 16, 8
	unpacked := n * size * size * ch * 9
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(n, ch, size, size)
	x.FillNormal(rng, 0, 1)
	for _, frozen := range []bool{false, true} {
		c, err := NewConv2D("c", ch, ch, 3, ConvOpts{Padding: 1, NoBias: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		c.SetFrozen(frozen)
		c.Forward(x, frozen) // a frozen layer keeps nothing even in training mode
		if got := convBuffersAtLeast(c, unpacked); got != 0 {
			t.Errorf("frozen=%v: %d batch-sized buffers after a forward that keeps nothing, want 0", frozen, got)
		}
		if c.px != nil {
			t.Errorf("frozen=%v: Forward left its input staged", frozen)
		}
	}
	c, err := NewConv2D("c", ch, ch, 3, ConvOpts{Padding: 1, NoBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		c.Backward(c.Forward(x, true), true)
		if got := convBuffersAtLeast(c, unpacked); got != 1 {
			t.Errorf("step %d: %d batch-sized buffers after a training step, want 1", step, got)
		}
		if c.px != nil || c.pdy != nil {
			t.Errorf("step %d: a training step left its arguments staged", step)
		}
	}
}

// wrnBlockForTest is a pre-activation WRN block with a stride-2 projection
// shortcut: every Conv2D shape the model has (3x3 strided, 3x3, 1x1).
func wrnBlockForTest(t *testing.T, seed int64) *Residual {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	conv := func(name string, in, out, k, stride int) *Conv2D {
		c, err := NewConv2D(name, in, out, k, ConvOpts{Stride: stride, Padding: k / 2, NoBias: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bn := func(name string, ch int) *BatchNorm {
		b, err := NewBatchNorm(name, ch)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	body := NewSequential("body", bn("bn1", 16), NewReLU("r1"), conv("c1", 16, 32, 3, 2),
		bn("bn2", 32), NewReLU("r2"), conv("c2", 32, 32, 3, 1))
	return NewResidual("blk", body, NewSequential("sc", conv("proj", 16, 32, 1, 2)))
}

// trainBlockForTest runs steps of forward, backward and a plain SGD update on
// a fixed batch and returns the bits of everything the block ends with.
func trainBlockForTest(blk *Residual, seed int64, steps int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(16, 16, 8, 8)
	x.FillNormal(rng, 0, 1)
	dy := tensor.New(16, 32, 4, 4)
	dy.FillNormal(rng, 0, 0.1)
	var bits []uint32
	for s := 0; s < steps; s++ {
		y := blk.Forward(x, true)
		dx := blk.Backward(dy, true)
		if s == steps-1 {
			bits = append(float32Bits(y.Data()), float32Bits(dx.Data())...)
		}
		for _, p := range blk.Params() {
			if err := p.W.Axpy(-0.05, p.Grad()); err != nil {
				panic(err)
			}
			p.Grad().Zero()
		}
	}
	for _, p := range blk.Params() {
		bits = append(bits, float32Bits(p.W.Data())...)
	}
	return bits
}

// TestConvConcurrentReplicasShareThePool trains two blocks at once, as two
// client replicas do, with four workers. On an idle pool their ParallelFor
// chunks interleave on the shared pool and on the goroutines that help drain
// it, each chunk working in its layer's own scratch. With lanes occupied, as
// the simulator's training workers hold them, a call fans out over fewer
// lanes in chunks larger than the ones its layer staged scratch for, or runs
// inline when none are left. Each replica must end in the bits of the same
// training run made alone on an idle pool, and the race detector (CI runs
// this package under it) must see no shared write.
func TestConvConcurrentReplicasShareThePool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const steps = 20
	seeds := []int64{11, 12}
	want := make([][]uint32, len(seeds))
	for i, seed := range seeds {
		want[i] = trainBlockForTest(wrnBlockForTest(t, seed), seed, steps)
	}
	for _, busy := range []int{0, 2, 4} {
		got := make([][]uint32, len(seeds))
		tensor.Occupy(busy)
		var wg sync.WaitGroup
		for i, seed := range seeds {
			blk := wrnBlockForTest(t, seed)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = trainBlockForTest(blk, seed, steps)
			}()
		}
		wg.Wait()
		tensor.Release(busy)
		for i := range seeds {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%d lanes occupied: replica %d trained beside another ends in different bits than trained alone", busy, i)
			}
		}
	}
}
