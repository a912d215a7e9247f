package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"fedfteds/internal/tensor"
)

// Encoder builds a section body from typed primitives. All encodings are
// fixed-width little endian and fully deterministic: maps are emitted in
// sorted key order, floats as their exact IEEE-754 bits (NaN payloads
// included), so identical state always produces identical bytes.
type Encoder struct {
	buf bytes.Buffer
}

// Bytes returns the encoded body.
func (e *Encoder) Bytes() []byte { return e.buf.Bytes() }

// PutUint64 appends v.
func (e *Encoder) PutUint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

// PutInt64 appends v.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutInt appends v as a 64-bit integer.
func (e *Encoder) PutInt(v int) { e.PutInt64(int64(v)) }

// PutFloat64 appends v's exact IEEE-754 bit pattern.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUint64(uint64(len(s)))
	e.buf.WriteString(s)
}

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUint64(uint64(len(b)))
	e.buf.Write(b)
}

// PutTensor appends one tensor in the library wire format (rank, dims, data).
func (e *Encoder) PutTensor(t *tensor.Tensor) error {
	if t == nil {
		return fmt.Errorf("ckpt: encode nil tensor")
	}
	e.buf.Grow(t.EncodedSize())
	b, err := t.AppendTo(e.buf.AvailableBuffer())
	if err != nil {
		return err
	}
	e.buf.Write(b)
	return nil
}

// PutTensors appends a count-prefixed tensor list.
func (e *Encoder) PutTensors(ts []*tensor.Tensor) error {
	e.PutUint64(uint64(len(ts)))
	for i, t := range ts {
		if err := e.PutTensor(t); err != nil {
			return fmt.Errorf("ckpt: tensor %d: %w", i, err)
		}
	}
	return nil
}

// PutFloat64Map appends an int→float64 map in ascending key order.
func (e *Encoder) PutFloat64Map(m map[int]float64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.PutUint64(uint64(len(keys)))
	for _, k := range keys {
		e.PutInt(k)
		e.PutFloat64(m[k])
	}
}

// Decoder reads a section body written by Encoder. Errors are sticky: after
// the first failure every getter returns a zero value, and Done reports the
// failure, which always wraps ErrCorrupt.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder starts decoding a section body.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// fail records the first error, wrapping ErrCorrupt.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil after recording a truncation error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// Done asserts the body was fully consumed and returns the first error.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Uint64 reads one 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads one 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int reads one integer.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Float64 reads one float64 bit pattern.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// String reads one length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint64()
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds body", n)
		return ""
	}
	return string(d.take(int(n)))
}

// Bytes reads one length-prefixed byte slice (copied out of the body).
func (d *Decoder) Bytes() []byte {
	n := d.Uint64()
	if n > uint64(len(d.b)) {
		d.fail("bytes length %d exceeds body", n)
		return nil
	}
	return append([]byte(nil), d.take(int(n))...)
}

// Tensor reads one tensor in the library wire format. The declared volume is
// checked against the bytes that remain before any storage is sized, so a
// corrupt shape cannot trigger an enormous allocation.
func (d *Decoder) Tensor() *tensor.Tensor {
	if d.err != nil {
		return nil
	}
	var t tensor.Tensor
	n, err := t.DecodeFrom(d.b[d.off:])
	d.off += n
	if err != nil {
		d.fail("tensor: %v", err)
		return nil
	}
	return &t
}

// Tensors reads a count-prefixed tensor list.
func (d *Decoder) Tensors() []*tensor.Tensor {
	n := d.Uint64()
	// A tensor is at least 1 byte on the wire; anything claiming more
	// tensors than remaining bytes is corrupt, not a huge allocation.
	if n > uint64(len(d.b)-d.off) {
		d.fail("tensor count %d exceeds body", n)
		return nil
	}
	out := make([]*tensor.Tensor, 0, n)
	for i := uint64(0); i < n; i++ {
		t := d.Tensor()
		if d.err != nil {
			return nil
		}
		out = append(out, t)
	}
	return out
}

// Float64Map reads an int→float64 map written by PutFloat64Map.
func (d *Decoder) Float64Map() map[int]float64 {
	n := d.Uint64()
	if n > uint64(len(d.b)-d.off)/16+1 {
		d.fail("map size %d exceeds body", n)
		return nil
	}
	m := make(map[int]float64, n)
	for i := uint64(0); i < n; i++ {
		k := d.Int()
		v := d.Float64()
		if d.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}
