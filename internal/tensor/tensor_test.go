package tensor

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{name: "scalar", shape: nil, want: 1},
		{name: "vector", shape: []int{7}, want: 7},
		{name: "matrix", shape: []int{3, 4}, want: 12},
		{name: "rank4", shape: []int{2, 3, 4, 5}, want: 120},
		{name: "zero dim", shape: []int{0, 5}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if got := x.Len(); got != tt.want {
				t.Fatalf("Len() = %d, want %d", got, tt.want)
			}
			if got := x.Rank(); got != len(tt.shape) {
				t.Fatalf("Rank() = %d, want %d", got, len(tt.shape))
			}
		})
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	x, err := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if got := x.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	if _, err := FromSlice([]float32{1, 2}, 3); !errors.Is(err, ErrShape) {
		t.Fatalf("expected ErrShape, got %v", err)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(42, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 42 {
		t.Fatalf("At = %v, want 42", got)
	}
	// Row-major order: offset of (1,2,3) in (2,3,4) is 1*12 + 2*4 + 3 = 23.
	if got := x.Data()[23]; got != 42 {
		t.Fatalf("flat[23] = %v, want 42", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Set(9, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	v, err := x.Reshape(4)
	if err != nil {
		t.Fatalf("Reshape: %v", err)
	}
	v.Set(99, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape view does not share storage")
	}
	if _, err := x.Reshape(5); !errors.Is(err, ErrShape) {
		t.Fatalf("expected ErrShape, got %v", err)
	}
}

func TestRowAndSliceViews(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	r := x.Row(1)
	if r.At(0) != 3 || r.At(1) != 4 {
		t.Fatalf("Row(1) = %v,%v want 3,4", r.At(0), r.At(1))
	}
	s := x.Slice(1, 3)
	if s.Dim(0) != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatalf("Slice(1,3) wrong: %v", s.Data())
	}
	s.Set(-1, 0, 0)
	if x.At(1, 0) != -1 {
		t.Fatal("Slice view does not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	b := MustFromSlice([]float32{4, 5, 6}, 3)
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	want := []float32{5, 7, 9}
	for i, w := range want {
		if a.At(i) != w {
			t.Fatalf("Add: a[%d] = %v, want %v", i, a.At(i), w)
		}
	}
	if err := a.Sub(b); err != nil {
		t.Fatal(err)
	}
	if a.At(0) != 1 || a.At(2) != 3 {
		t.Fatalf("Sub did not invert Add: %v", a.Data())
	}
	a.Scale(0.5)
	if a.At(1) != 1 {
		t.Fatalf("Scale: got %v, want 1", a.At(1))
	}
	c := New(2)
	if err := a.Add(c); !errors.Is(err, ErrShape) {
		t.Fatalf("expected ErrShape on mismatched Add, got %v", err)
	}
}

func TestAxpyAndLerp(t *testing.T) {
	a := MustFromSlice([]float32{1, 1}, 2)
	x := MustFromSlice([]float32{2, 4}, 2)
	if err := a.Axpy(0.5, x); err != nil {
		t.Fatal(err)
	}
	if a.At(0) != 2 || a.At(1) != 3 {
		t.Fatalf("Axpy: %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	x := MustFromSlice([]float32{3, -1, 4, 1}, 4)
	if got := x.Sum(); got != 7 {
		t.Fatalf("Sum = %v", got)
	}
	idx, v := x.MaxIndex()
	if idx != 2 || v != 4 {
		t.Fatalf("MaxIndex = %d,%v", idx, v)
	}
	if got := x.Norm2(); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Fatalf("Norm2 = %v", got)
	}
}

func TestRowVectorOps(t *testing.T) {
	m := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	v := MustFromSlice([]float32{10, 20}, 2)
	if err := m.AddRowVector(v); err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 13, 24}
	for i, w := range want {
		if m.Data()[i] != w {
			t.Fatalf("AddRowVector[%d] = %v, want %v", i, m.Data()[i], w)
		}
	}
	sum := New(2)
	if err := m.SumRowsAdd(sum); err != nil {
		t.Fatal(err)
	}
	if sum.At(0) != 24 || sum.At(1) != 46 {
		t.Fatalf("SumRowsAdd = %v", sum.Data())
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got, err := MatMulNew(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got.Data(), want.Data())
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 5)
	a.FillNormal(rng, 0, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	got, err := MatMulNew(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(a, 1e-6) {
		t.Fatal("A @ I != A")
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	dst := New(2, 2)
	if err := MatMul(dst, a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("expected ErrShape, got %v", err)
	}
}

func TestMatMulTransposedVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(4, 6)
	b := New(6, 5)
	a.FillNormal(rng, 0, 1)
	b.FillNormal(rng, 0, 1)

	want, err := MatMulNew(a, b)
	if err != nil {
		t.Fatal(err)
	}

	at, err := a.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	gotTA := New(4, 5)
	if err := MatMulTransAAdd(gotTA, at, b); err != nil {
		t.Fatal(err)
	}
	if !gotTA.AllClose(want, 1e-4) {
		t.Fatal("MatMulTransAAdd(aᵀ, b) != a @ b")
	}

	bt, err := b.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	gotTB := New(4, 5)
	if err := MatMulTransB(gotTB, a, bt); err != nil {
		t.Fatal(err)
	}
	if !gotTB.AllClose(want, 1e-4) {
		t.Fatal("MatMulTransB(a, bᵀ) != a @ b")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(3, 7)
	a.FillNormal(rng, 0, 1)
	at, err := a.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	att, err := at.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	if !att.Equal(a) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
	}{
		{name: "scalar", shape: nil},
		{name: "vector", shape: []int{13}},
		{name: "matrix", shape: []int{4, 5}},
		{name: "rank4", shape: []int{2, 3, 2, 2}},
		{name: "empty", shape: []int{0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			x := New(tt.shape...)
			x.FillNormal(rng, 0, 2)
			buf, err := x.AppendTo(nil)
			if err != nil {
				t.Fatalf("AppendTo: %v", err)
			}
			if len(buf) != x.EncodedSize() {
				t.Fatalf("wrote %d bytes, EncodedSize says %d", len(buf), x.EncodedSize())
			}
			var y Tensor
			if n, err := y.DecodeFrom(buf); err != nil || n != len(buf) {
				t.Fatalf("DecodeFrom consumed %d of %d bytes: %v", n, len(buf), err)
			}
			if !y.Equal(x) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

func TestReadFromRejectsHugeVolume(t *testing.T) {
	// rank=2, dims = 1<<20 x 1<<20 would be 4 TiB; must be rejected.
	var buf bytes.Buffer
	buf.WriteByte(2)
	for i := 0; i < 2; i++ {
		buf.Write([]byte{0, 0, 16, 0}) // 1<<20 little endian
	}
	var y Tensor
	if _, err := y.DecodeFrom(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestReadFromTruncated(t *testing.T) {
	buf, err := New(3, 3).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var y Tensor
	if _, err := y.DecodeFrom(buf[:len(buf)-2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated blob: err %v, want ErrCorrupt", err)
	}
}

func TestIsFinite(t *testing.T) {
	x := MustFromSlice([]float32{1, 2}, 2)
	if !x.IsFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	x.Set(float32(math.NaN()), 0)
	if x.IsFinite() {
		t.Fatal("NaN not detected")
	}
	x.Set(float32(math.Inf(1)), 0)
	if x.IsFinite() {
		t.Fatal("Inf not detected")
	}
	// Every position of the unrolled body and of the tail, every kind of
	// non-finite value; the largest finite values stay finite.
	big := New(37)
	big.Fill(math.MaxFloat32)
	big.Set(-math.MaxFloat32, 1)
	if !big.IsFinite() {
		t.Fatal("MaxFloat32 reported non-finite")
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for i := 0; i < 37; i++ {
			big.Set(bad, i)
			if big.IsFinite() {
				t.Fatalf("%v at element %d not detected", bad, i)
			}
			big.Set(1, i)
		}
	}
}

func TestClampAndApply(t *testing.T) {
	x := MustFromSlice([]float32{-2, 0.5, 3}, 3)
	x.Apply(func(v float32) float32 { return v * v })
	if x.At(0) != 4 || x.At(2) != 9 || x.At(1) != 0.25 {
		t.Fatalf("Apply: %v", x.Data())
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for run := uint64(0); run < 4; run++ {
		for round := uint64(0); round < 8; round++ {
			for client := uint64(0); client < 8; client++ {
				s := DeriveSeed(run, round, client)
				if seen[s] {
					t.Fatalf("duplicate seed for (%d,%d,%d)", run, round, client)
				}
				seen[s] = true
			}
		}
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(3, 2, 1) {
		t.Fatal("DeriveSeed ignores argument order")
	}
}

// Property-based tests.

func TestQuickAddCommutes(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		a := MustFromSlice(vals, len(vals))
		b := a.Clone()
		b.Scale(2)
		ab := a.Clone()
		if err := ab.Add(b); err != nil {
			return false
		}
		ba := b.Clone()
		if err := ba.Add(a); err != nil {
			return false
		}
		return ab.Equal(ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		x := MustFromSlice(vals, len(vals))
		buf, err := x.AppendTo(nil)
		if err != nil {
			return false
		}
		var y Tensor
		if _, err := y.DecodeFrom(buf); err != nil {
			return false
		}
		if len(vals) == 0 {
			return y.Len() == 0
		}
		// NaN != NaN, so compare bit patterns.
		for i, v := range x.Data() {
			if math.Float32bits(v) != math.Float32bits(y.Data()[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScaleLinearity(t *testing.T) {
	f := func(raw []float32) bool {
		vals := make([]float32, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) && math.Abs(float64(v)) < 1e6 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		a := MustFromSlice(vals, len(vals))
		x2 := a.Clone()
		x2.Scale(2)
		sum := a.Clone()
		if err := sum.Add(a); err != nil {
			return false
		}
		return x2.AllClose(sum, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(128, 128)
	y := New(128, 128)
	x.FillNormal(rng, 0, 1)
	y.FillNormal(rng, 0, 1)
	dst := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMul(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}
