package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary wire format (little endian):
//
//	u8  rank
//	u32 × rank  dims
//	f32 × volume  data
//
// The format is deliberately minimal: it is the payload of the FL model
// messages, where compactness matters (the paper's FedFT only ships the
// upper part of the model each round).

// ErrCorrupt reports a malformed serialized tensor.
var ErrCorrupt = errors.New("tensor: corrupt serialized data")

// maxSerializedDims bounds decoded tensor volume (1 GiB of float32) so a
// corrupt or hostile stream cannot trigger an enormous allocation.
const maxSerializedVolume = 1 << 28

// AppendTo appends t's wire encoding to b and returns the extended slice,
// writing every element straight into place. A b with EncodedSize spare
// capacity is not reallocated, which is how EncodeTensors builds a whole
// state blob in one exactly-sized allocation.
func (t *Tensor) AppendTo(b []byte) ([]byte, error) {
	if len(t.shape) > 255 {
		return b, fmt.Errorf("tensor: rank %d exceeds wire format limit", len(t.shape))
	}
	off := len(b)
	b = slices.Grow(b, t.EncodedSize())[:off+t.EncodedSize()]
	b[off] = uint8(len(t.shape))
	off++
	for _, d := range t.shape {
		binary.LittleEndian.PutUint32(b[off:], uint32(d))
		off += 4
	}
	dst := b[off:]
	for _, v := range t.data {
		binary.LittleEndian.PutUint32(dst, math.Float32bits(v))
		dst = dst[4:]
	}
	return b, nil
}

// DecodeFrom parses one wire-format tensor from the front of b into t,
// reusing t's existing shape and data storage when large enough, and
// returns the number of bytes consumed. The declared volume is checked
// against len(b) before any storage is sized. It is the zero-allocation
// steady-state decode used by the streaming aggregators: after the first
// round it needs no fresh tensor storage.
func (t *Tensor) DecodeFrom(b []byte) (int, error) {
	if len(b) < 1 {
		return 0, fmt.Errorf("%w: missing rank", ErrCorrupt)
	}
	rank := int(b[0])
	n := 1
	if len(b) < n+4*rank {
		return n, fmt.Errorf("%w: truncated dims", ErrCorrupt)
	}
	if cap(t.shape) >= rank {
		t.shape = t.shape[:rank]
	} else {
		t.shape = make([]int, rank)
	}
	vol := 1
	for i := range t.shape {
		d := int(binary.LittleEndian.Uint32(b[n:]))
		n += 4
		t.shape[i] = d
		vol *= d
		if vol > maxSerializedVolume {
			return n, fmt.Errorf("%w: volume exceeds limit", ErrCorrupt)
		}
	}
	if len(b) < n+4*vol {
		return n, fmt.Errorf("%w: truncated data", ErrCorrupt)
	}
	if cap(t.data) >= vol {
		t.data = t.data[:vol]
	} else {
		t.data = make([]float32, vol)
	}
	for i := range t.data {
		t.data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[n+4*i:]))
	}
	return n + 4*vol, nil
}

// EncodedSize returns the number of bytes AppendTo produces.
func (t *Tensor) EncodedSize() int {
	return 1 + 4*len(t.shape) + 4*len(t.data)
}
