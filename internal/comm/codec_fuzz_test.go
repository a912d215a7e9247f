package comm

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"fedfteds/internal/tensor"
)

// fuzzCodecSpecs are the codecs whose payload layout is this package's own.
var fuzzCodecSpecs = []string{"float16", "int8", "topk:0.5"}

// Hostile codec payloads, each a few bytes that used to cost the server
// hundreds of megabytes before it rejected them: a topk tensor declaring
// [1<<26] entries of which it keeps none (count 1, rank 1, dim, k = 0), and
// a float16 blob declaring 0xfffff tensors and holding none. The third costs
// nothing where int is 64 bits and used to panic where it is 32: one rank-1
// tensor whose dim, 0xFFFFFFFF, is -1 as a 32-bit int.
var (
	hostileTopKVolume   = []byte{1, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0}
	hostileFloat16Count = []byte{0xff, 0xff, 0x0f, 0}
	hostileDimOverflow  = []byte{1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}
)

// fuzzCodecRef is the fixed broadcast reference payloads decode against.
func fuzzCodecRef() []*tensor.Tensor {
	rng := rand.New(rand.NewSource(5))
	ref := []*tensor.Tensor{tensor.New(4, 4), tensor.New(4)}
	for _, r := range ref {
		r.FillUniform(rng, -1, 1)
	}
	return ref
}

// checkCodecDecode holds one payload to the codec decoders' contract and
// reports whether it was accepted: a rejection is ErrProtocol; the decode
// allocates no more than a small multiple of the payload (a scalar float16
// tensor is 3 bytes on the wire against a Tensor header, its storage and
// its slot) plus the reference the delta codecs size their output by; and
// an accepted payload decodes to the same tensors a second time, into the
// first decode's storage.
func checkCodecDecode(t *testing.T, spec string, ref []*tensor.Tensor, payload []byte) bool {
	t.Helper()
	codec, err := ParseCodec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []*tensor.Tensor
	spent := allocatedBy(func() { out, err = codec.Decode(ref, nil, payload) })
	refBytes := 0
	for _, r := range ref {
		refBytes += 64 + 4*r.Len()
	}
	const slack = 4096
	if limit := uint64(32*len(payload) + 2*refBytes + slack); spent > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d bytes, limit %d", spec, len(payload), spent, limit)
	}
	if err != nil {
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s payload %x: rejection is not ErrProtocol: %v", spec, payload, err)
		}
		return false
	}
	first := cloneAll(out)
	again, err := codec.Decode(ref, out, payload)
	if err != nil {
		t.Fatalf("%s payload %x: accepted once, then rejected: %v", spec, payload, err)
	}
	// Bit patterns, not values: a decoded NaN must compare equal to itself.
	if string(mustEncode(t, first)) != string(mustEncode(t, again)) {
		t.Fatalf("%s payload %x: two decodes of one payload differ", spec, payload)
	}
	return true
}

// FuzzCodecDecode drives the float16, int8 and topk payload decoders — the
// bytes a ClientUpdate's State carries into StreamAggregator.Add — against
// a fixed reference: no input panics, over-allocates, is rejected with an
// untyped error or decodes differently twice (checkCodecDecode).
func FuzzCodecDecode(f *testing.F) {
	ref := fuzzCodecRef()
	rng := rand.New(rand.NewSource(6))
	ts := cloneAll(ref)
	for _, x := range ts {
		x.FillUniform(rng, -1, 1)
	}
	for i, spec := range fuzzCodecSpecs {
		codec, err := ParseCodec(spec)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := codec.Encode(ref, ts, 7)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), payload)
		f.Add(uint8(i), hostileTopKVolume)
		f.Add(uint8(i), hostileFloat16Count)
		f.Add(uint8(i), hostileDimOverflow)
	}
	f.Fuzz(func(t *testing.T, codec uint8, payload []byte) {
		checkCodecDecode(t, fuzzCodecSpecs[int(codec)%len(fuzzCodecSpecs)], ref, payload)
	})
}

// TestHostileCodecPayloadsRejectedCheaply folds the two hostile payloads
// through StreamAggregator.Add, where a peer's bytes actually arrive: each
// is refused with ErrProtocol for under 1 MiB of allocation, and the
// aggregator — its reusable scratch tensors included — still folds a valid
// update afterwards.
func TestHostileCodecPayloadsRejectedCheaply(t *testing.T) {
	for _, tt := range []struct {
		spec    string
		ref     []*tensor.Tensor
		hostile []byte
	}{
		{"topk:0.5", []*tensor.Tensor{tensor.New(8)}, hostileTopKVolume},
		{"float16", nil, hostileFloat16Count},
	} {
		t.Run(tt.spec, func(t *testing.T) {
			server, _ := ParseCodec(tt.spec)
			client, _ := ParseCodec(tt.spec)
			agg := NewStreamAggregator()
			agg.SetCodec(server, tt.ref)
			valid := func(id int) ClientUpdate {
				x := tensor.New(8)
				x.Fill(float32(id))
				blob, err := client.Encode(tt.ref, []*tensor.Tensor{x}, 1)
				if err != nil {
					t.Fatal(err)
				}
				return ClientUpdate{ClientID: id, Round: 1, State: blob, NumSelected: 1, Codec: client.Name()}
			}
			if err := agg.Add(valid(1)); err != nil {
				t.Fatal(err)
			}
			bad := valid(2)
			bad.State = tt.hostile
			// One measured call, not allocatedBy's best of two: an oversized
			// scratch tensor left behind by the first would make the second free.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := agg.Add(bad)
			runtime.ReadMemStats(&after)
			spent := after.TotalAlloc - before.TotalAlloc
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("hostile payload: err %v, want ErrProtocol", err)
			}
			if spent >= 1<<20 {
				t.Fatalf("hostile %d-byte payload cost %d bytes before it was rejected", len(tt.hostile), spent)
			}
			if err := agg.Add(valid(3)); err != nil {
				t.Fatalf("aggregator unusable after a rejected payload: %v", err)
			}
			if agg.Updates() != 2 {
				t.Fatalf("%d updates folded, want 2", agg.Updates())
			}
		})
	}
}
