package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fedfteds/internal/tensor"
)

// reluReference is the scalar rule the branch-free loops must reproduce bit
// for bit: y = 0 where x < 0, else x (NaN and -0 pass through), and
// dx = dy where y > 0, else +0.
func reluReference(x, dy []float32) (y, dx []float32) {
	y, dx = make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		if v < 0 {
			y[i] = 0
		} else {
			y[i] = v
		}
		if y[i] > 0 {
			dx[i] = dy[i]
		}
	}
	return y, dx
}

func float32Bits(xs []float32) []uint32 {
	out := make([]uint32, len(xs))
	for i, v := range xs {
		out[i] = math.Float32bits(v)
	}
	return out
}

// TestReLUBitPatterns drives the layer over every class of float32 bit
// pattern — signed zeros and infinities, quiet and signalling NaNs of both
// signs, the smallest and largest denormals, the largest finite values — and
// over 1e5 random patterns, forward and backward, in both modes: the layer
// has one value rule, so train and eval must agree with the reference and
// with each other.
func TestReLUBitPatterns(t *testing.T) {
	special := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7F800000, 0xFF800000, // ±Inf
		0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFFFFFFF, 0x7FFFFFFF, // quiet NaNs
		0x7F800001, 0xFF800001, 0x7FBFFFFF, 0xFFBFFFFF, // signalling NaNs
		0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, // denormals
		0x00800000, 0x80800000, // smallest normals
		0x7F7FFFFF, 0xFF7FFFFF, // largest finite
		0x3F800000, 0xBF800000, // ±1
	}
	rng := rand.New(rand.NewSource(31))
	bits := append([]uint32(nil), special...)
	for len(bits) < len(special)+100_000 {
		bits = append(bits, rng.Uint32())
	}
	x, dy := make([]float32, len(bits)), make([]float32, len(bits))
	for i, b := range bits {
		x[i] = math.Float32frombits(b)
		// Gradients get the special patterns too, out of phase with x.
		dy[i] = math.Float32frombits(bits[(i+7)%len(bits)])
	}
	wantY, wantDx := reluReference(x, dy)

	for _, train := range []bool{true, false} {
		r := NewReLU("relu")
		xt := tensor.MustFromSlice(append([]float32(nil), x...), len(x), 1)
		y := r.Forward(xt, train)
		if !reflect.DeepEqual(float32Bits(y.Data()), float32Bits(wantY)) {
			for i := range x {
				if got, want := math.Float32bits(y.Data()[i]), math.Float32bits(wantY[i]); got != want {
					t.Fatalf("train=%v: Forward(%08x) = %08x, want %08x", train, bits[i], got, want)
				}
			}
		}
		if !reflect.DeepEqual(float32Bits(xt.Data()), bits) {
			t.Fatalf("train=%v: Forward mutated its input", train)
		}
		dx := r.Backward(tensor.MustFromSlice(append([]float32(nil), dy...), len(x), 1), true)
		for i := range x {
			if got, want := math.Float32bits(dx.Data()[i]), math.Float32bits(wantDx[i]); got != want {
				t.Fatalf("train=%v: Backward(x=%08x, dy=%08x) = %08x, want %08x",
					train, bits[i], math.Float32bits(dy[i]), got, want)
			}
		}
	}
}
