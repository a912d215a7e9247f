package comm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedfteds/internal/tensor"
)

// randomTensors builds a deterministic random tensor list: count tensors of
// random rank ≤ 3 and random dims, values in [-2, 2].
func randomTensors(rng *rand.Rand, count int) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, count)
	for i := range ts {
		rank := 1 + rng.Intn(3)
		shape := make([]int, rank)
		for d := range shape {
			shape[d] = 1 + rng.Intn(7)
		}
		ts[i] = tensor.New(shape...)
		ts[i].FillUniform(rng, -2, 2)
	}
	return ts
}

func cloneAll(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// TestIdentityCodecBitIdenticalToLegacyFrames pins the identity codec to
// the legacy tensor blob: Encode must equal EncodeTensors byte for byte and
// Decode must accept legacy blobs, for any shapes. This is the contract
// that keeps golden checkpoints, resume and the relay/async equivalence
// gates valid on codec-aware builds.
func TestIdentityCodecBitIdenticalToLegacyFrames(t *testing.T) {
	c, err := ParseCodec("identity")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		ts := randomTensors(rng, 1+rng.Intn(6))
		legacy, err := EncodeTensors(ts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Encode(nil, ts, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, legacy) {
			t.Fatalf("trial %d: identity Encode diverges from EncodeTensors", trial)
		}
		dec, err := c.Decode(nil, nil, legacy)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if !ts[i].Equal(dec[i]) {
				t.Fatalf("trial %d: identity Decode tensor %d mismatch", trial, i)
			}
		}
	}
}

// TestCodecRoundTripProperty fuzzes Encode/Decode for every codec over
// random shapes: shapes must survive exactly, values within the codec's
// quantization tolerance, and the same (ref, ts, seed) must reproduce the
// same bytes (determinism is what makes runs resumable).
func TestCodecRoundTripProperty(t *testing.T) {
	specs := []struct {
		spec string
		tol  func(maxAbs float64) float64
	}{
		{"identity", func(float64) float64 { return 0 }},
		// Half precision resolves ~2^-11 of the value's scale; stochastic
		// rounding can land one ulp either way.
		{"float16", func(maxAbs float64) float64 { return math.Max(maxAbs/1024, 1e-6) }},
		// int8 quantizes the delta against ref in blocks; the worst-case step
		// is delta-maxabs/127, and stochastic rounding stays within one step.
		{"int8", func(maxAbs float64) float64 { return maxAbs / 127 * 1.01 }},
		// topk:1 keeps every entry, so delta coding must be exact.
		{"topk:1", func(float64) float64 { return 1e-6 }},
	}
	for _, s := range specs {
		t.Run(s.spec, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var scratch []*tensor.Tensor
			for trial := 0; trial < 40; trial++ {
				c, err := ParseCodec(s.spec)
				if err != nil {
					t.Fatal(err)
				}
				ts := randomTensors(rng, 1+rng.Intn(5))
				ref := make([]*tensor.Tensor, len(ts))
				for i := range ref {
					ref[i] = tensor.New(ts[i].Shape()...)
					ref[i].FillUniform(rng, -2, 2)
				}
				seed := uint64(trial) * 1337
				blob, err := c.Encode(ref, ts, seed)
				if err != nil {
					t.Fatal(err)
				}
				// Fresh instance, same inputs, same bytes.
				c2, _ := ParseCodec(s.spec)
				blob2, err := c2.Encode(ref, cloneAll(ts), seed)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, blob2) {
					t.Fatalf("trial %d: encode not deterministic", trial)
				}
				dec, err := c.Decode(ref, scratch, blob)
				if err != nil {
					t.Fatal(err)
				}
				scratch = dec[:cap(dec)]
				if len(dec) != len(ts) {
					t.Fatalf("trial %d: decoded %d tensors, want %d", trial, len(dec), len(ts))
				}
				for i := range ts {
					if !ts[i].SameShape(dec[i]) {
						t.Fatalf("trial %d: tensor %d shape mismatch", trial, i)
					}
					// Delta codecs quantize ts - ref, so their tolerance
					// scales with the delta's magnitude, not the value's.
					var maxAbs float64
					for j, v := range ts[i].Data() {
						x := float64(v)
						if c.NeedsReference() {
							x = float64(v - ref[i].Data()[j])
						}
						if a := math.Abs(x); a > maxAbs {
							maxAbs = a
						}
					}
					tol := float32(s.tol(maxAbs))
					if !ts[i].AllClose(dec[i], tol) {
						t.Fatalf("trial %d: tensor %d outside tolerance %v", trial, i, tol)
					}
				}
			}
		})
	}
}

// TestQuantizationUnbiased checks the stochastic rounding is unbiased: the
// mean of many independently seeded quantizations of one value converges
// to the value itself, for both quantizers.
func TestQuantizationUnbiased(t *testing.T) {
	for _, spec := range []string{"float16", "int8"} {
		t.Run(spec, func(t *testing.T) {
			c, err := ParseCodec(spec)
			if err != nil {
				t.Fatal(err)
			}
			// A value deliberately between quantization points, plus an
			// extreme to fix int8's scale. The zero reference makes int8's
			// delta equal the value itself (float16 ignores it).
			src := tensor.MustFromSlice([]float32{0.337731, 1.0}, 2)
			ref := []*tensor.Tensor{tensor.New(2)}
			var sum float64
			const trials = 4000
			for i := 0; i < trials; i++ {
				blob, err := c.Encode(ref, []*tensor.Tensor{src}, uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				dec, err := c.Decode(ref, nil, blob)
				if err != nil {
					t.Fatal(err)
				}
				sum += float64(dec[0].Data()[0])
			}
			mean := sum / trials
			if math.Abs(mean-0.337731) > 3e-4 {
				t.Fatalf("stochastic rounding biased: mean %v, want ≈0.337731", mean)
			}
		})
	}
}

// TestFloat16Widening pins the half-precision conversion pair on exact and
// edge values.
func TestFloat16Widening(t *testing.T) {
	cases := []float32{0, 1, -1, 0.5, 2, 65504, -65504, 6.1035156e-05, 5.9604645e-08}
	for _, v := range cases {
		h := f16FromF32Stoch(v, 0)
		if got := f16ToF32(h); got != v {
			t.Fatalf("f16 round trip of exactly-representable %v gave %v", v, got)
		}
	}
	if got := f16ToF32(f16FromF32Stoch(1e9, 0)); got != 65504 {
		t.Fatalf("overflow should clamp to 65504, got %v", got)
	}
	if h := f16FromF32Stoch(float32(math.NaN()), 0); h&0x7c00 != 0x7c00 || h&0x3ff == 0 {
		t.Fatalf("NaN must stay NaN, got %#x", h)
	}
}

// TestTopKCompressionAndResiduals checks topk ships only k entries per
// tensor and that the dropped delta mass lands in the residual: sent plus
// residual must reconstruct the dense delta exactly.
func TestTopKCompressionAndResiduals(t *testing.T) {
	c, err := ParseCodec("topk:0.1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ts := []*tensor.Tensor{tensor.New(10, 10)}
	ref := []*tensor.Tensor{tensor.New(10, 10)}
	ts[0].FillUniform(rng, -1, 1)
	ref[0].FillUniform(rng, -1, 1)
	blob, err := c.Encode(ref, ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4-byte count + rank/dims header (9) + u32 k + 10 entries of 8 bytes.
	if want := 4 + 9 + 4 + 10*8; len(blob) != want {
		t.Fatalf("topk:0.1 blob is %d bytes, want %d", len(blob), want)
	}
	dec, err := c.Decode(ref, nil, blob)
	if err != nil {
		t.Fatal(err)
	}
	res := c.(ResidualCarrier).ResidualState()
	if len(res) != 1 {
		t.Fatalf("expected 1 residual tensor, got %d", len(res))
	}
	// decoded - ref + residual == ts - ref  (what was sent plus what was
	// withheld is the whole delta).
	for j, want := range ts[0].Data() {
		got := dec[0].Data()[j] + res[0].Data()[j]
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("entry %d: sent+residual %v, dense %v", j, got, want)
		}
	}
}

// TestTopKErrorFeedbackConvergence drives R rounds of the case error
// feedback exists for: a persistent dense gradient field where most
// coordinates are individually too small to ever make the top-k cut. With
// residual carry-over, withheld mass accumulates until every coordinate
// periodically ships, so the server tracks the dense trajectory R·g within
// a bounded (O(1/frac) rounds' worth) error. With residuals discarded the
// same below-threshold coordinates are suppressed forever and the server
// diverges from the dense run.
func TestTopKErrorFeedbackConvergence(t *testing.T) {
	const rounds = 400
	rng := rand.New(rand.NewSource(11))
	grad := tensor.New(20, 20)
	grad.FillUniform(rng, 0.1, 1)
	run := func(keepResiduals bool) float64 {
		c, _ := ParseCodec("topk:0.05")
		server := tensor.New(20, 20)
		client := tensor.New(20, 20)
		var scratch []*tensor.Tensor
		for r := 0; r < rounds; r++ {
			// The FL loop: client starts at the broadcast, trains one step
			// of the fixed gradient field, ships a sparse delta.
			if err := client.CopyFrom(server); err != nil {
				t.Fatal(err)
			}
			if err := client.Add(grad); err != nil {
				t.Fatal(err)
			}
			ref := []*tensor.Tensor{server}
			if !keepResiduals {
				if err := c.(ResidualCarrier).RestoreResidualState(nil); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := c.Encode(ref, []*tensor.Tensor{client}, uint64(r))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := c.Decode(ref, scratch, blob)
			if err != nil {
				t.Fatal(err)
			}
			scratch = dec[:cap(dec)]
			if err := server.CopyFrom(dec[0]); err != nil {
				t.Fatal(err)
			}
		}
		// Relative tracking error against the dense trajectory R·g.
		var num, den float64
		for j, g := range grad.Data() {
			want := float64(g) * rounds
			diff := float64(server.Data()[j]) - want
			num += diff * diff
			den += want * want
		}
		return math.Sqrt(num / den)
	}
	withEF := run(true)
	withoutEF := run(false)
	if withEF > 0.25 {
		t.Fatalf("topk with error feedback drifted %.1f%% from the dense run, want ≤ 25%%", 100*withEF)
	}
	if withoutEF < 2*withEF {
		t.Fatalf("control failed: without residuals drift %.1f%% should dwarf the EF drift %.1f%%",
			100*withoutEF, 100*withEF)
	}
}

// TestParseCodecSpecs exercises the registry: canonical names round-trip
// and malformed specs fail with actionable errors.
func TestParseCodecSpecs(t *testing.T) {
	good := map[string]string{
		"":          "identity",
		"identity":  "identity",
		"float16":   "float16",
		"int8":      "int8",
		"topk":      "topk:0.05",
		"topk:0.25": "topk:0.25",
	}
	for spec, want := range good {
		c, err := ParseCodec(spec)
		if err != nil {
			t.Fatalf("ParseCodec(%q): %v", spec, err)
		}
		if c.Name() != want {
			t.Fatalf("ParseCodec(%q).Name() = %q, want %q", spec, c.Name(), want)
		}
		// Canonical names must reparse to themselves.
		c2, err := ParseCodec(c.Name())
		if err != nil || c2.Name() != c.Name() {
			t.Fatalf("canonical name %q does not round-trip: %v", c.Name(), err)
		}
	}
	for _, spec := range []string{"gzip", "topk:0", "topk:1.5", "topk:x", "int8:7", "identity:x"} {
		if _, err := ParseCodec(spec); err == nil {
			t.Fatalf("ParseCodec(%q) should fail", spec)
		}
	}
}

// TestPickCodecNegotiation exercises the client side of the Hello/Welcome
// negotiation, including the actionable-mismatch contract.
func TestPickCodecNegotiation(t *testing.T) {
	if c, err := PickCodec(nil, "auto"); err != nil || c.Name() != "identity" {
		t.Fatalf("auto against a silent server should pick identity, got %v, %v", c, err)
	}
	if c, err := PickCodec([]string{"int8"}, ""); err != nil || c.Name() != "int8" {
		t.Fatalf("auto should adopt the advertisement, got %v, %v", c, err)
	}
	if c, err := PickCodec([]string{"topk:0.05"}, "topk"); err != nil || c.Name() != "topk:0.05" {
		t.Fatalf("matching explicit spec should succeed, got %v, %v", c, err)
	}
	_, err := PickCodec([]string{"int8"}, "float16")
	if err == nil || !strings.Contains(err.Error(), "int8") || !strings.Contains(err.Error(), "float16") {
		t.Fatalf("mismatch error must name both sides, got %v", err)
	}
	if _, err := PickCodec(nil, "gzip"); err == nil {
		t.Fatal("unknown explicit codec should fail")
	}
	if _, err := PickCodec([]string{"gzip"}, "auto"); err == nil {
		t.Fatal("auto against an unsupported advertisement should fail")
	}
}

// TestAggregatorCodecPaths checks the streaming aggregator folds
// codec-encoded updates — whole-state and per-layer — to the same result as
// its identity path (int8: within quantization tolerance) and rejects a
// codec-echo mismatch without touching the aggregate.
func TestAggregatorCodecPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := []*tensor.Tensor{tensor.New(4, 4), tensor.New(4)}
	for _, r := range ref {
		r.FillUniform(rng, -1, 1)
	}
	mkUpdate := func(c Codec, id int) ClientUpdate {
		ts := []*tensor.Tensor{tensor.New(4, 4), tensor.New(4)}
		rng2 := rand.New(rand.NewSource(int64(100 + id)))
		for _, s := range ts {
			s.FillUniform(rng2, -1, 1)
		}
		blob, err := c.Encode(ref, ts, CodecSeed(9, 1, id))
		if err != nil {
			t.Fatal(err)
		}
		name := ""
		if c.Name() != CodecIdentity {
			name = c.Name()
		}
		return ClientUpdate{ClientID: id, Round: 1, State: blob, NumSelected: 10 + id, Codec: name}
	}
	for _, spec := range []string{"identity", "int8", "topk:0.5"} {
		t.Run("stream/"+spec, func(t *testing.T) {
			server, _ := ParseCodec(spec)
			agg := NewStreamAggregator()
			agg.SetCodec(server, ref)
			for id := 0; id < 3; id++ {
				enc, _ := ParseCodec(spec)
				if err := agg.Add(mkUpdate(enc, id)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := agg.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("echo-mismatch", func(t *testing.T) {
		server, _ := ParseCodec("int8")
		agg := NewStreamAggregator()
		agg.SetCodec(server, ref)
		enc, _ := ParseCodec("int8")
		u := mkUpdate(enc, 0)
		u.Codec = "float16"
		if err := agg.Add(u); err == nil {
			t.Fatal("codec echo mismatch must be rejected")
		}
		if agg.Updates() != 0 {
			t.Fatal("rejected update must leave the aggregate untouched")
		}
		// Legacy aggregator (no codec) must refuse codec-stamped frames.
		legacy := NewStreamAggregator()
		if err := legacy.Add(u); err == nil {
			t.Fatal("legacy aggregator must reject a codec-stamped update")
		}
	})
	t.Run("masked", func(t *testing.T) {
		groups, layout := []string{"g0", "g1"}, []string{"g0", "g0", "g1"}
		full := []*tensor.Tensor{tensor.New(3, 3), tensor.New(3), tensor.New(5)}
		for _, r := range full {
			r.FillUniform(rng, -1, 1)
		}
		build := func(codec string) []*tensor.Tensor {
			a, err := NewMaskedStreamAggregator(nil, groups, layout)
			if err != nil {
				t.Fatal(err)
			}
			var server Codec
			if codec != "" {
				server, _ = ParseCodec(codec)
			}
			a.SetCodec(server, full)
			for id := 0; id < 2; id++ {
				// Client 0 covers only g0; client 1 covers both.
				var sub []*tensor.Tensor
				var declared []string
				if id == 0 {
					sub, declared = full[:2], []string{"g0"}
				} else {
					sub, declared = full, []string{"g0", "g1"}
				}
				ts := make([]*tensor.Tensor, len(sub))
				rng2 := rand.New(rand.NewSource(int64(200 + id)))
				for i := range ts {
					ts[i] = tensor.New(sub[i].Shape()...)
					ts[i].FillUniform(rng2, -1, 1)
				}
				enc, _ := ParseCodec(codec)
				blob, err := enc.Encode(sub, ts, CodecSeed(9, 1, id))
				if err != nil {
					t.Fatal(err)
				}
				name := ""
				if enc.Name() != CodecIdentity {
					name = enc.Name()
				}
				err = a.Add(ClientUpdate{ClientID: id, Round: 1, State: blob,
					Groups: declared, NumSelected: 5, Codec: name})
				if err != nil {
					t.Fatal(err)
				}
			}
			out, err := a.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return cloneAll(out)
		}
		// topk:1 is lossless, so the masked fold must match the identity
		// fold exactly.
		id := build("")
		tk := build("topk:1")
		for i := range id {
			if !id[i].AllClose(tk[i], 1e-6) {
				t.Fatalf("masked topk:1 fold diverges from identity at tensor %d", i)
			}
		}
	})
}

// TestCodecSeedDistinct spot-checks the seed derivation separates rounds
// and senders.
func TestCodecSeedDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for r := 0; r < 8; r++ {
		for id := 0; id < 8; id++ {
			s := CodecSeed(123, r, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between (%d,%d) and %s", r, id, prev)
			}
			seen[s] = fmt.Sprintf("(%d,%d)", r, id)
		}
	}
}

// TestCodecCompressionRatios pins each codec's headline compression on a
// realistic mixed-shape state: int8 must clear the 3× acceptance bar.
func TestCodecCompressionRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ts := []*tensor.Tensor{tensor.New(256, 64), tensor.New(64), tensor.New(64, 10), tensor.New(10)}
	ref := make([]*tensor.Tensor, len(ts))
	for i, s := range ts {
		s.FillUniform(rng, -1, 1)
		ref[i] = tensor.New(s.Shape()...)
		ref[i].FillUniform(rng, -1, 1)
	}
	base, err := EncodeTensors(ts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"float16": 1.9, "int8": 3.0, "topk:0.05": 8.0}
	for spec, minRatio := range want {
		c, _ := ParseCodec(spec)
		blob, err := c.Encode(ref, ts, 1)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(len(base)) / float64(len(blob))
		if ratio < minRatio {
			t.Fatalf("%s compresses %.2f×, want ≥ %.1f×", spec, ratio, minRatio)
		}
	}
}
