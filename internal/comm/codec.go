package comm

import (
	"fmt"
	"strconv"
	"strings"

	"fedfteds/internal/seeds"
	"fedfteds/internal/tensor"
)

// Codec compresses a tensor list into an uplink payload and reverses it.
// The identity codec's Encode output is pinned byte-for-byte to
// EncodeTensors, so a session that never negotiates a codec produces
// exactly today's frames; the other codecs trade bits for bandwidth.
//
// Encode and Decode both take ref, the broadcast global state the update
// was trained from, tensor-parallel to ts. Value codecs (identity,
// float16) ignore it and report NeedsReference false — they encode
// absolute values, which is what lets the buffered asynchronous engine
// decode stale updates whose broadcast reference is long gone. Delta
// codecs (int8, topk) encode against ref and refuse to run without it:
// one local round moves weights by a small fraction of their magnitude,
// so quantization steps sized to the delta are far finer than steps
// sized to the weights.
//
// Codec instances are cheap and NOT safe for concurrent use: topk carries
// per-client error-feedback residuals across Encode calls, and decoders
// reuse the scratch the caller passes. Hold one instance per encoding
// client and one per decoding aggregator.
type Codec interface {
	// Name is the canonical spec string (ParseCodec(Name()) reproduces the
	// codec, parameters included). It is what Welcome advertises and what
	// ClientUpdate echoes.
	Name() string
	// NeedsReference reports whether Encode/Decode require ref. Reference-
	// free codecs work under the buffered asynchronous engine; delta codecs
	// do not and are refused at flag parsing.
	NeedsReference() bool
	// Encode serializes ts into one payload. seed drives stochastic
	// rounding; the same (ref, ts, seed) always yields the same bytes.
	Encode(ref, ts []*tensor.Tensor, seed uint64) ([]byte, error)
	// Decode reverses Encode, reusing scratch — slice and tensor storage —
	// like DecodeTensorsReuse. The returned tensors alias scratch's and are
	// valid only until the next Decode with the same scratch.
	Decode(ref, scratch []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error)
}

// ResidualCarrier is implemented by codecs that keep client-side state
// across rounds (topk's error-feedback residuals). The simulator
// checkpoints the state through RunState so resume reproduces the run bit
// for bit; fedclient keeps it in process memory.
type ResidualCarrier interface {
	// ResidualState returns the carried residual tensors (nil before the
	// first Encode). The tensors are owned by the codec; callers clone
	// before mutating.
	ResidualState() []*tensor.Tensor
	// RestoreResidualState replaces the carried residuals, taking
	// ownership of the given tensors.
	RestoreResidualState(ts []*tensor.Tensor) error
}

// CodecIdentity is the canonical name of the identity codec.
const CodecIdentity = "identity"

// WireName is how c appears on the wire, in the Welcome advertisement and in
// every ClientUpdate's echo: its canonical name, except that identity is the
// empty string, so a session that negotiates nothing ships exactly the frames
// that predate codecs. An aggregator also accepts identity's canonical name as
// an echo.
func WireName(c Codec) string {
	if c.Name() == CodecIdentity {
		return ""
	}
	return c.Name()
}

// defaultTopKFraction is the fraction of entries topk keeps when the spec
// names no parameter.
const defaultTopKFraction = 0.05

// CodecNames lists the accepted -codec spec forms, for flag help and
// fail-fast error messages.
func CodecNames() []string {
	return []string{"identity", "float16", "int8", "topk", "topk:<fraction>"}
}

// ParseCodec builds a fresh codec instance from a spec string. Accepted
// specs: "identity" (or ""), "float16", "int8", "topk" and
// "topk:<fraction>" with fraction in (0, 1]. Each call returns a new
// instance, so per-client residual state never aliases.
func ParseCodec(spec string) (Codec, error) {
	name, param := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, param = spec[:i], spec[i+1:]
	}
	switch name {
	case "", CodecIdentity:
		if param != "" {
			return nil, fmt.Errorf("%w: codec %q takes no parameter", ErrProtocol, name)
		}
		return identityCodec{}, nil
	case "float16":
		if param != "" {
			return nil, fmt.Errorf("%w: codec %q takes no parameter", ErrProtocol, name)
		}
		return float16Codec{}, nil
	case "int8":
		if param != "" {
			return nil, fmt.Errorf("%w: codec %q takes no parameter", ErrProtocol, name)
		}
		return int8Codec{}, nil
	case "topk":
		frac := defaultTopKFraction
		if param != "" {
			f, err := strconv.ParseFloat(param, 64)
			if err != nil || f <= 0 || f > 1 {
				return nil, fmt.Errorf("%w: topk fraction %q must be in (0, 1]", ErrProtocol, param)
			}
			frac = f
		}
		return &topKCodec{frac: frac, name: fmt.Sprintf("topk:%g", frac)}, nil
	default:
		return nil, fmt.Errorf("%w: unknown codec %q (known: %s)",
			ErrProtocol, spec, strings.Join(CodecNames(), ", "))
	}
}

// PickCodec resolves the client side of the Hello/Welcome negotiation:
// advertised is Welcome.Codecs (empty means the server runs identity) and
// want the client's -codec flag. "auto" (or "") adopts whatever the server
// advertises; an explicit spec must match the advertisement exactly, and a
// mismatch fails fast with both sides' positions so the operator can fix
// either flag.
func PickCodec(advertised []string, want string) (Codec, error) {
	if want == "" || want == "auto" {
		if len(advertised) == 0 {
			return identityCodec{}, nil
		}
		c, err := ParseCodec(advertised[0])
		if err != nil {
			return nil, fmt.Errorf("comm: server advertises codec %q this client does not support: %w",
				advertised[0], err)
		}
		return c, nil
	}
	c, err := ParseCodec(want)
	if err != nil {
		return nil, err
	}
	serverName := CodecIdentity
	if len(advertised) > 0 {
		serverName = advertised[0]
	}
	if c.Name() != serverName {
		return nil, fmt.Errorf("%w: client wants codec %q but server advertises %q (run both sides with the same -codec, or use -codec auto)",
			ErrProtocol, c.Name(), serverName)
	}
	return c, nil
}

// CodecSeed derives the stochastic-rounding seed for one client's update
// in one round. Every encoder — fedclient, the relay's upstream leg, the
// simulator's wire round-trip — uses it so a run is reproducible from
// (base seed, round, sender) alone. The derivation is the shared seeds
// chain under TagCodec; the seeds package test pins it to the historic
// inline spelling.
func CodecSeed(base uint64, round, id int) uint64 {
	return seeds.Chain(base, seeds.TagCodec, uint64(round), uint64(id))
}

// identityCodec is the no-op codec: Encode is exactly EncodeTensors and
// Decode exactly DecodeTensorsReuse. Tests pin this equivalence —
// sessions negotiated to identity ship byte-identical frames to sessions
// that predate codecs entirely.
type identityCodec struct{}

func (identityCodec) Name() string         { return CodecIdentity }
func (identityCodec) NeedsReference() bool { return false }

func (identityCodec) Encode(_, ts []*tensor.Tensor, _ uint64) ([]byte, error) {
	return EncodeTensors(ts)
}

func (identityCodec) Decode(_, scratch []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error) {
	return DecodeTensorsReuse(scratch, b)
}

// reuseTensorSlice sizes scratch to count slots, reusing the slice and any
// tensors it already holds. New slots stay nil until a decoder has parsed
// the tensor that fills them (tensor.Ensure and DecodeTensorsReuse both
// allocate on nil), so a count costs one pointer per slot and nothing more.
func reuseTensorSlice(scratch []*tensor.Tensor, count int) []*tensor.Tensor {
	if cap(scratch) >= count {
		return scratch[:count]
	}
	out := make([]*tensor.Tensor, count)
	copy(out, scratch)
	return out
}
