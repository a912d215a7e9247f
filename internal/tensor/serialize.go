package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Binary wire format (little endian):
//
//	u8  rank
//	u32 × rank  dims
//	f32 × volume  data
//
// The format is deliberately minimal: it is the payload of the FL model
// messages, where compactness matters (the paper's FedFT only ships the
// upper part of the model each round). On a little-endian host the payload
// is the tensor's memory and moves with one copy; elsewhere putElems/getElems.

// ErrCorrupt reports a malformed serialized tensor.
var ErrCorrupt = errors.New("tensor: corrupt serialized data")

// maxSerializedDims bounds decoded tensor volume (1 GiB of float32) so a
// corrupt or hostile stream cannot trigger an enormous allocation.
const maxSerializedVolume = 1 << 28

// floatBytes returns f's memory as bytes, without copying. The view is sound:
// a float32 is four bytes aligned at least as strictly as a byte, every bit
// pattern is a value of both types, and the result points into f's own
// pointer-free allocation, keeping it alive with nothing for the collector to
// scan. Callers hand it straight to copy and drop it while f stays as it is.
func floatBytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// hostIsWireOrder reports whether float32 memory already is the wire's
// little-endian payload, probed once at init through the view itself.
var hostIsWireOrder = floatBytes([]float32{math.Float32frombits(0x01020304)})[0] == 0x04

// putElems writes src as little-endian bit patterns one element at a time:
// the definition of the payload, and the big-endian host's encoder.
func putElems(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getElems is putElems' inverse.
func getElems(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// AppendTo appends t's wire encoding to b and returns the extended slice,
// writing the payload straight into place. A b with EncodedSize spare
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
	if hostIsWireOrder {
		copy(b[off:], floatBytes(t.data))
	} else {
		putElems(b[off:], t.data)
	}
	return b, nil
}

// DecodeFrom parses one wire-format tensor from the front of b into t,
// reusing t's existing shape and data storage when large enough, and
// returns the number of bytes consumed. The whole header is checked before t
// is touched or any storage is sized: each dim against maxSerializedVolume
// while it is still a uint32 (on a 32-bit peer int(0xFFFFFFFF) is -1), their
// product in 64 bits, and the declared volume against len(b). It is the
// zero-allocation steady-state decode used by the streaming aggregators:
// after the first round it needs no fresh tensor storage.
func (t *Tensor) DecodeFrom(b []byte) (int, error) {
	if len(b) < 1 {
		return 0, fmt.Errorf("%w: missing rank", ErrCorrupt)
	}
	rank := int(b[0])
	n := 1 + 4*rank
	if len(b) < n {
		return 1, fmt.Errorf("%w: truncated dims", ErrCorrupt)
	}
	vol := uint64(1)
	for i := 0; i < rank; i++ {
		d := binary.LittleEndian.Uint32(b[1+4*i:])
		if vol *= uint64(d); d > maxSerializedVolume || vol > maxSerializedVolume {
			return n, fmt.Errorf("%w: volume exceeds limit", ErrCorrupt)
		}
	}
	if uint64(len(b)-n) < 4*vol {
		return n, fmt.Errorf("%w: truncated data", ErrCorrupt)
	}
	if cap(t.shape) >= rank {
		t.shape = t.shape[:rank]
	} else {
		t.shape = make([]int, rank)
	}
	for i := range t.shape {
		t.shape[i] = int(binary.LittleEndian.Uint32(b[1+4*i:]))
	}
	if cap(t.data) >= int(vol) {
		t.data = t.data[:vol]
	} else {
		t.data = make([]float32, vol)
	}
	if hostIsWireOrder {
		copy(floatBytes(t.data), b[n:])
	} else {
		getElems(t.data, b[n:])
	}
	return n + 4*int(vol), nil
}

// EncodedSize returns the number of bytes AppendTo produces.
func (t *Tensor) EncodedSize() int {
	return 1 + 4*len(t.shape) + 4*len(t.data)
}
