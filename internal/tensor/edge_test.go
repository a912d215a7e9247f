package tensor

import (
	"errors"
	"math/rand"
	"testing"
)

func TestSlicePanicsOutOfRange(t *testing.T) {
	x := New(4, 2)
	for _, tt := range []struct {
		name   string
		lo, hi int
	}{
		{name: "negative lo", lo: -1, hi: 2},
		{name: "hi beyond", lo: 0, hi: 5},
		{name: "inverted", lo: 3, hi: 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			x.Slice(tt.lo, tt.hi)
		})
	}
}

func TestRowPanicsOnNonMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2, 2).Row(0)
}

func TestAtPanicsOnBadIndex(t *testing.T) {
	x := New(2, 3)
	for _, idx := range [][]int{{0}, {0, 3}, {-1, 0}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for index %v", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestCopyFromShapeMismatch(t *testing.T) {
	a := New(2, 3)
	b := New(7)
	if err := a.CopyFrom(b); !errors.Is(err, ErrShape) {
		t.Fatalf("expected ErrShape, got %v", err)
	}
	// Equal volume with different shape copies flat data.
	c := New(6)
	c.Fill(3)
	if err := a.CopyFrom(c); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 2) != 3 {
		t.Fatal("flat copy failed")
	}
}

func TestMatMulTransShapeErrors(t *testing.T) {
	a := New(3, 2)
	b := New(4, 5)
	dst := New(2, 5)
	if err := MatMulTransAAdd(dst, a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("TransA: expected ErrShape, got %v", err)
	}
	if err := MatMulTransB(dst, a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("TransB: expected ErrShape, got %v", err)
	}
	if _, err := New(3).Transpose(); !errors.Is(err, ErrShape) {
		t.Fatalf("Transpose: expected ErrShape, got %v", err)
	}
}

func TestMatMulZeroSkipConsistency(t *testing.T) {
	// A sparse matrix must multiply exactly like a dense one regardless of
	// kernel shortcuts.
	rng := rand.New(rand.NewSource(9))
	a := New(10, 10)
	b := New(10, 10)
	b.FillNormal(rng, 0, 1)
	// Half the rows of a are zero.
	for i := 0; i < 10; i += 2 {
		for j := 0; j < 10; j++ {
			a.Set(float32(rng.NormFloat64()), i, j)
		}
	}
	got, err := MatMulNew(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference computation in float64.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			var want float64
			for k := 0; k < 10; k++ {
				want += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			if diff := float64(got.At(i, j)) - want; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("(%d,%d): got %v want %v", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestFillKaimingStdScales(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	big := New(10000)
	big.FillKaiming(rng, 50)
	var sq float64
	for _, v := range big.Data() {
		sq += float64(v) * float64(v)
	}
	std := sq / float64(big.Len())
	want := 2.0 / 50.0
	if std < want*0.9 || std > want*1.1 {
		t.Fatalf("kaiming variance %v, want ~%v", std, want)
	}
	// Degenerate fan-in falls back to 1.
	small := New(10)
	small.FillKaiming(rng, 0)
	if !small.IsFinite() {
		t.Fatal("kaiming with fanIn 0 produced non-finite values")
	}
}

func TestEncodedSizeMatchesWrite(t *testing.T) {
	for _, shape := range [][]int{{}, {1}, {3, 4}, {2, 2, 2, 2}} {
		x := New(shape...)
		want := 1 + 4*len(shape) + 4*x.Len()
		if got := x.EncodedSize(); got != want {
			t.Fatalf("shape %v: EncodedSize %d, want %d", shape, got, want)
		}
	}
}
