package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

// wireBits are element bit patterns a copy through a float register could
// change and a byte copy cannot: a signalling NaN, a negative quiet NaN,
// negative zero, both denormal extremes, an infinity, and ordinary values.
var wireBits = []uint32{0x7F800001, 0xFFC00000, 0x80000000, 0x00000001, 0x807FFFFF,
	0xFF800000, 0x3F800000, 0xC0490FDB, 0x00000000, 0x7F7FFFFF, 0x7FC00000, 0x01020304, 0xFFFFFFFF}

// TestTensorWireMatchesElementLoop holds AppendTo and DecodeFrom to putElems
// and getElems, the per-element loops that define the payload and that a
// big-endian host runs: same bytes out, same bits in, at rank 0, with a
// zero-length dim, appending after a prefix into spare capacity (which must
// not be reallocated) and decoding into larger retained storage (which must
// be reused). The loops are called here directly, so they are exercised on
// every host, whichever one AppendTo picks.
func TestTensorWireMatchesElementLoop(t *testing.T) {
	for _, shape := range [][]int{nil, {0}, {3, 0, 2}, {1}, {13}, {4, 5}, {2, 3, 2, 2}} {
		x := New(shape...)
		for i := range x.data {
			x.data[i] = math.Float32frombits(wireBits[i%len(wireBits)])
		}
		want := []byte{byte(len(shape))}
		for _, d := range shape {
			want = binary.LittleEndian.AppendUint32(want, uint32(d))
		}
		header := len(want)
		want = append(want, make([]byte, 4*len(x.data))...)
		putElems(want[header:], x.data)
		for i, bits := range wireBits[:min(len(wireBits), len(x.data))] {
			if got := binary.LittleEndian.Uint32(want[header+4*i:]); got != bits {
				t.Fatalf("shape %v: putElems wrote %08x for element %08x", shape, got, bits)
			}
		}

		got, err := x.AppendTo(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("shape %v: AppendTo(nil) = %x (%v), element loop wrote %x", shape, got, err, want)
		}
		buf := append(make([]byte, 0, 3+len(want)+7), "pre"...)
		got, err = x.AppendTo(buf)
		if err != nil || !bytes.Equal(got, append([]byte("pre"), want...)) {
			t.Fatalf("shape %v: AppendTo after a prefix = %x (%v)", shape, got, err)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("shape %v: AppendTo reallocated a buffer with spare capacity", shape)
		}

		ref := make([]float32, len(x.data))
		getElems(ref, want[header:])
		retained := New(40)
		retained.Fill(7)
		storage := &retained.data[0]
		for name, y := range map[string]*Tensor{"fresh": {}, "retained": retained} {
			n, err := y.DecodeFrom(append(want[:len(want):len(want)], 0xAA, 0xBB)) // trailing bytes are the next tensor's
			if err != nil || n != len(want) {
				t.Fatalf("shape %v into %s: DecodeFrom consumed %d of %d bytes: %v", shape, name, n, len(want), err)
			}
			if !y.SameShape(x) || len(y.data) != len(ref) {
				t.Fatalf("shape %v into %s: decoded shape %v, %d elements", shape, name, y.shape, len(y.data))
			}
			for i, v := range y.data {
				if math.Float32bits(v) != math.Float32bits(ref[i]) || math.Float32bits(v) != math.Float32bits(x.data[i]) {
					t.Fatalf("shape %v into %s: element %d decoded to %08x, loop %08x, encoded %08x",
						shape, name, i, math.Float32bits(v), math.Float32bits(ref[i]), math.Float32bits(x.data[i]))
				}
			}
		}
		if len(retained.data) > 0 && &retained.data[0] != storage {
			t.Fatalf("shape %v: DecodeFrom replaced storage large enough to reuse", shape)
		}
	}
}

// TestDecodeFromRefusesOverflowingDims feeds DecodeFrom headers whose dims
// only fit an int, or whose product only stays positive, on a 64-bit host:
// where int is 32 bits 0xFFFFFFFF is -1 and 65536 x 65536 is 0, and either
// used to pass both length checks. Each is ErrCorrupt on every host, refused
// before the target is touched or anything is sized.
func TestDecodeFromRefusesOverflowingDims(t *testing.T) {
	for _, dims := range [][]uint32{{0xFFFFFFFF}, {65536, 65536}, {1 << 28, 2}, {0, 0xFFFFFFFF}} {
		b := []byte{byte(len(dims))}
		for _, d := range dims {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		b = append(b, make([]byte, 64)...)
		var fresh Tensor
		held := MustFromSlice([]float32{1, 2, 3}, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err1 := fresh.DecodeFrom(b)
		_, err2 := held.DecodeFrom(b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err1, ErrCorrupt) || !errors.Is(err2, ErrCorrupt) {
			t.Fatalf("dims %v: errors %v, %v, want ErrCorrupt", dims, err1, err2)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 1024 {
			t.Fatalf("dims %v: refusing the header allocated %d bytes", dims, spent)
		}
		if fresh.shape != nil || fresh.data != nil || !held.Equal(MustFromSlice([]float32{1, 2, 3}, 3)) {
			t.Fatalf("dims %v: a refused header changed its target: %v, %v", dims, fresh.shape, held)
		}
	}
}
