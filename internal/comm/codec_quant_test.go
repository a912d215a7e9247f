package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

// next32 steps the chain once and returns the draw's top 32 bits: the
// references' one draw per element.
func (r *quantRNG) next32() uint32 {
	r.state = tensor.Splitmix64(r.state)
	return uint32(r.state >> 32)
}

// float16EncodeReference is float16Codec.Encode as it was before its draws
// went through the two-stream schedule, kept as the oracle
// FuzzFloat16EncodeMatchesReference holds the shipped encoder to: each
// tensor's chain stepped alone, one draw and one append per element.
func float16EncodeReference(ts []*tensor.Tensor, seed uint64) ([]byte, error) {
	size := 4
	for _, t := range ts {
		size += 1 + 4*len(t.Shape()) + 2*t.Len()
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	for ti, t := range ts {
		var err error
		if buf, err = appendTensorHeader(buf, t); err != nil {
			return nil, err
		}
		rng := newQuantRNG(seed, ti)
		for _, v := range t.Data() {
			buf = binary.LittleEndian.AppendUint16(buf, f16FromF32Stoch(v, rng.next32()))
		}
	}
	return buf, nil
}

// int8EncodeReference is int8Codec.Encode as it was before its inner loop
// went branch-free, kept verbatim as the oracle the differential fuzz holds
// the shipped encoder to: a float64 block max, math.Floor, a branch on the
// stochastic-rounding coin and an append per byte.
func int8EncodeReference(ref, ts []*tensor.Tensor, seed uint64) ([]byte, error) {
	if len(ref) != len(ts) {
		return nil, fmt.Errorf("%w: int8 codec needs the broadcast reference (%d ref tensors for %d state tensors)",
			ErrProtocol, len(ref), len(ts))
	}
	size := 4
	for _, t := range ts {
		blocks := (t.Len() + int8BlockSize - 1) / int8BlockSize
		size += 1 + 4*len(t.Shape()) + 4*blocks + t.Len()
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	for ti, t := range ts {
		if !ref[ti].SameShape(t) {
			return nil, fmt.Errorf("%w: int8 reference tensor %d shape mismatch", ErrProtocol, ti)
		}
		var err error
		if buf, err = appendTensorHeader(buf, t); err != nil {
			return nil, err
		}
		rng := newQuantRNG(seed, ti)
		data, rdata := t.Data(), ref[ti].Data()
		for len(data) > 0 {
			blk, rblk := data, rdata
			if len(blk) > int8BlockSize {
				blk, rblk = blk[:int8BlockSize], rblk[:int8BlockSize]
			}
			data, rdata = data[len(blk):], rdata[len(blk):]
			var maxAbs float32
			for j, v := range blk {
				if a := float32(math.Abs(float64(v - rblk[j]))); a > maxAbs {
					maxAbs = a
				}
			}
			scale := maxAbs / 127
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(scale))
			if scale == 0 {
				buf = append(buf, make([]byte, len(blk))...)
				continue
			}
			inv := 1 / float64(scale)
			for j, v := range blk {
				q := float64(v-rblk[j]) * inv
				lo := math.Floor(q)
				if float64(rng.next32()) < (q-lo)*4294967296.0 {
					lo++
				}
				if lo > 127 {
					lo = 127
				} else if lo < -127 {
					lo = -127
				}
				buf = append(buf, byte(int8(lo)))
			}
		}
	}
	return buf, nil
}

// int8FuzzInput builds a state and its reference from a generator seed and
// an injection list. The generator draws one to eight tensors, so that the
// encoders' two streams get uneven loads, of rank 0 to 3 (a dim may be 0,
// and most volumes end in a partial int8 block), a
// reference of magnitude 1 or 0 and a delta magnitude per tensor: ordinary,
// tiny enough that the block scale is subnormal or zero (against a zero
// reference, where such deltas survive the subtraction), or large. Each
// three-byte group of inject then plants one edge case at a position of
// the concatenated data: a NaN or ±Inf on either side, a delta that
// overflows to Inf, a MaxFloat32 delta, a subnormal delta, or a whole block
// of zero deltas.
func int8FuzzInput(gen int64, inject []byte) (ref, ts []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(gen))
	maxDim := []int{0, 300, 40, 14}
	mags := []float32{1, 1e-3, 1e-37, 1e-42, 1e-43, 1e37}
	var flat, rflat [][]float32
	for n := 1 + rng.Intn(8); n > 0; n-- {
		rank := rng.Intn(4)
		shape := make([]int, rank)
		for d := range shape {
			shape[d] = rng.Intn(maxDim[rank] + 1)
		}
		r, x := tensor.New(shape...), tensor.New(shape...)
		r.FillUniform(rng, -1, 1)
		if rng.Intn(2) == 0 {
			r.Fill(0)
		}
		mag := mags[rng.Intn(len(mags))]
		for i := range x.Data() {
			x.Data()[i] = r.Data()[i] + mag*float32(rng.NormFloat64())
		}
		ref, ts = append(ref, r), append(ts, x)
		rflat, flat = append(rflat, r.Data()), append(flat, x.Data())
	}
	total := 0
	for _, d := range flat {
		total += len(d)
	}
	if total == 0 {
		return ref, ts
	}
	for ; len(inject) >= 3; inject = inject[3:] {
		pos := int(binary.LittleEndian.Uint16(inject)) % total
		ti := 0
		for pos >= len(flat[ti]) {
			pos -= len(flat[ti])
			ti++
		}
		x, r := flat[ti], rflat[ti]
		switch inject[2] % 9 {
		case 0:
			x[pos] = float32(math.NaN())
		case 1:
			r[pos] = float32(math.NaN())
		case 2:
			x[pos] = float32(math.Inf(1))
		case 3:
			r[pos] = float32(math.Inf(1)) // a -Inf delta
		case 4:
			x[pos], r[pos] = math.MaxFloat32, -math.MaxFloat32 // overflows to +Inf
		case 5:
			x[pos], r[pos] = -math.MaxFloat32, 0
		case 6:
			x[pos], r[pos] = math.Float32frombits(uint32(inject[1])+1), 0 // subnormal
		case 7:
			x[pos] = r[pos]
		case 8:
			start := pos - pos%int8BlockSize
			copy(x[start:min(start+int8BlockSize, len(x))], r[start:])
		}
	}
	return ref, ts
}

// FuzzInt8EncodeMatchesReference holds the int8 encoder to the oracle it
// replaced, byte for byte: the same shapes, the same block scales, the same
// stochastic draws in the same order, and the same bytes for non-finite
// and degenerate deltas (int8FuzzInput).
func FuzzInt8EncodeMatchesReference(f *testing.F) {
	f.Add(uint64(7), int64(1), []byte{})
	f.Add(uint64(1), int64(2), []byte{0, 0, 0, 70, 0, 2, 130, 0, 4, 200, 0, 5, 10, 1, 6, 140, 1, 8})
	f.Add(uint64(3), int64(3), []byte{5, 0, 1, 90, 0, 3, 1, 1, 7})
	f.Add(uint64(9), int64(4), []byte{255, 255, 8, 0, 1, 6})
	f.Fuzz(func(t *testing.T, seed uint64, gen int64, inject []byte) {
		ref, ts := int8FuzzInput(gen, inject)
		want, wantErr := int8EncodeReference(ref, ts, seed)
		got, err := int8Codec{}.Encode(ref, ts, seed)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, reference error %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload differs from the reference at byte %d of %d (reference length %d)", firstDiff(got, want), len(got), len(want))
		}
	})
}

// FuzzFloat16EncodeMatchesReference holds the float16 encoder, which draws
// on the two-stream schedule, to the per-tensor loop it replaced, byte for
// byte, on int8FuzzInput's states: NaN, ±Inf, subnormal, zero and
// near-MaxFloat32 values planted in one to eight tensors of random shapes.
func FuzzFloat16EncodeMatchesReference(f *testing.F) {
	f.Add(uint64(7), int64(1), []byte{})
	f.Add(uint64(1), int64(2), []byte{0, 0, 0, 70, 0, 2, 130, 0, 4, 200, 0, 5, 10, 1, 6, 140, 1, 8})
	f.Add(uint64(3), int64(5), []byte{5, 0, 1, 90, 0, 3, 1, 1, 7})
	f.Fuzz(func(t *testing.T, seed uint64, gen int64, inject []byte) {
		_, ts := int8FuzzInput(gen, inject)
		want, wantErr := float16EncodeReference(ts, seed)
		got, err := float16Codec{}.Encode(nil, ts, seed)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, reference error %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload differs from the reference at byte %d of %d (reference length %d)", firstDiff(got, want), len(got), len(want))
		}
	})
}

// firstDiff is the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}

// streamLayouts are the tensor layouts TestInt8EncodeStreamsMatchReference
// runs the two streams over: a lone tensor (one stream idle), two equal ones
// (the streams in lockstep), the TCP workloads' 20-tensor MLP state, a large
// tensor beside many scalars (one stream takes the scalars), lengths off the
// 64-element block, and empty tensors among full ones.
var streamLayouts = map[string][][]int{
	"one tensor":         {{300, 7}},
	"two equal tensors":  {{64, 40}, {64, 40}},
	"codec bench shapes": codecBenchShapes,
	"large and scalars":  {{}, {}, {257, 31}, {}, {1}, {}, {}, {2}, {}, {}, {}},
	"partial blocks":     {{63}, {65}, {1}, {129}, {191, 3}, {7, 9}, {127}},
	"empty tensors":      {{0}, {100}, {3, 0}, {0, 0, 5}, {64}, {0}},
}

// TestInt8EncodeStreamsMatchReference holds the int8 encoder to the
// per-tensor loop it replaced, byte for byte, on layouts chosen to exercise
// the stream schedule, with deltas of about a thousandth of the weights and
// then with blocks planted whose scale is 0, +Inf or set by NaNs alone.
func TestInt8EncodeStreamsMatchReference(t *testing.T) {
	for name, shapes := range streamLayouts {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(45))
			var ref, ts []*tensor.Tensor
			for _, sh := range shapes {
				r, x := tensor.New(sh...), tensor.New(sh...)
				r.FillNormal(rng, 0, 0.05)
				for i := range x.Data() {
					x.Data()[i] = r.Data()[i] + 1e-3*float32(rng.NormFloat64())
				}
				ref, ts = append(ref, r), append(ts, x)
			}
			check := func(what string) {
				t.Helper()
				for _, seed := range []uint64{1, 0x5eed, math.MaxUint64} {
					want, err := int8EncodeReference(ref, ts, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := int8Codec{}.Encode(ref, ts, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s, seed %#x: payload differs from the reference at byte %d of %d", what, seed, firstDiff(got, want), len(got))
					}
				}
			}
			check("ordinary deltas")
			// Every third block of each tensor gets a zero, a NaN-only or an
			// Inf-bearing delta, in turn.
			for ti, x := range ts {
				xd, rd := x.Data(), ref[ti].Data()
				for b := 0; b*int8BlockSize < len(xd); b += 3 {
					blk := xd[b*int8BlockSize : min((b+1)*int8BlockSize, len(xd))]
					switch (ti + b/3) % 3 {
					case 0:
						copy(blk, rd[b*int8BlockSize:])
					case 1:
						for i := range blk {
							blk[i] = float32(math.NaN())
						}
					case 2:
						blk[len(blk)/2] = float32(math.Inf(1))
					}
				}
			}
			check("zero, NaN-only and +Inf blocks")
		})
	}
}

// pinnedCodecInput is the fixed state and reference TestCodecPayloadPinned
// encodes: shapes with a partial last int8 block, a scalar and an empty
// tensor, deltas of about a hundredth of the weights.
func pinnedCodecInput() (ref, ts []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(38))
	for _, shape := range [][]int{{37, 29}, {64}, {5}, {}, {0, 3}, {300}} {
		r, x := tensor.New(shape...), tensor.New(shape...)
		r.FillNormal(rng, 0, 1)
		for i := range x.Data() {
			x.Data()[i] = r.Data()[i] + 0.01*float32(rng.NormFloat64())
		}
		ref, ts = append(ref, r), append(ts, x)
	}
	return ref, ts
}

// pinnedInt8EdgeInput is one tensor of eight int8 blocks, each holding one
// edge case the encoder must keep encoding the same way: a NaN delta, a
// +Inf delta, all-zero deltas, subnormal deltas, deltas near MaxFloat32, a
// delta that overflows to -Inf, a NaN-only block and a partial block.
func pinnedInt8EdgeInput() (ref, ts []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(39))
	r, x := tensor.New(7*int8BlockSize+10), tensor.New(7*int8BlockSize+10)
	r.FillUniform(rng, -1, 1)
	rd, xd := r.Data(), x.Data()
	for i := range xd {
		xd[i] = rd[i] + 0.05*float32(rng.NormFloat64())
	}
	block := func(b int) ([]float32, []float32) {
		end := min((b+1)*int8BlockSize, len(xd))
		return xd[b*int8BlockSize : end], rd[b*int8BlockSize : end]
	}
	xb, _ := block(0)
	xb[17] = float32(math.NaN())
	xb, _ = block(1)
	xb[3] = float32(math.Inf(1))
	xb, rb := block(2)
	copy(xb, rb)
	xb, rb = block(3)
	for i := range xb {
		rb[i], xb[i] = 0, math.Float32frombits(uint32(rng.Intn(400))|uint32(rng.Intn(2))<<31)
	}
	xb, rb = block(4)
	for i := range xb {
		rb[i], xb[i] = 0, math.MaxFloat32*float32(rng.Float64()*2-1)
	}
	xb, rb = block(5)
	xb[40], rb[40] = -math.MaxFloat32, math.MaxFloat32
	xb, _ = block(6)
	for i := range xb {
		xb[i] = float32(math.NaN())
	}
	return []*tensor.Tensor{r}, []*tensor.Tensor{x}
}

// TestCodecPayloadPinned pins each codec's payload bytes directly, as the
// CRC-32C of Encode on fixed inputs recorded before the int8 encoder's inner
// loop was rewritten, so a change to any encoder's bits fails here first
// rather than only end to end.
func TestCodecPayloadPinned(t *testing.T) {
	ref, ts := pinnedCodecInput()
	edgeRef, edgeTs := pinnedInt8EdgeInput()
	for _, tt := range []struct {
		name, spec string
		ref, ts    []*tensor.Tensor
		crc        uint32
	}{
		{"identity", "identity", ref, ts, 0x037c5c0b},
		{"float16", "float16", ref, ts, 0x2285c8e9},
		{"int8", "int8", ref, ts, 0x55c97a3a},
		{"topk", "topk:0.05", ref, ts, 0x5bba58f6},
		{"int8 edge blocks", "int8", edgeRef, edgeTs, 0x54ef0d5a},
	} {
		t.Run(tt.name, func(t *testing.T) {
			codec, err := ParseCodec(tt.spec)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := codec.Encode(tt.ref, tt.ts, 0x5eed)
			if err != nil {
				t.Fatal(err)
			}
			if got := crc32.Checksum(blob, crc32.MakeTable(crc32.Castagnoli)); got != tt.crc {
				t.Fatalf("payload CRC-32C %#08x (%d bytes), want %#08x", got, len(blob), tt.crc)
			}
		})
	}
}
