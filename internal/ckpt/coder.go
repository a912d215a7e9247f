package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"fedfteds/internal/tensor"
)

// Coder runs one field list in both directions: under Encode it appends each
// field it is handed to a fresh body, under Decode it fills each field from a
// body. A section layout written once as a func(*Coder) is therefore its
// writer, its reader and its specification, and the three cannot drift apart.
//
// Every encoding is fixed-width little endian and fully deterministic: maps
// are written in ascending key order and floats as their exact IEEE-754 bits
// (NaN payloads included), so identical state always produces identical
// bytes. Errors are sticky: after the first failure every field decodes as
// its zero value.
type Coder struct {
	dec bool   // decoding b, else appending to it
	b   []byte // the body written so far, or the body being read
	off int    // read position in b
	err error  // first failure
}

// Encode runs fields over a fresh body and returns the bytes it produced.
func Encode(fields func(*Coder)) ([]byte, error) {
	var c Coder
	fields(&c)
	return c.b, c.err
}

// Decode runs fields over body, which they must consume exactly. Every
// failure the Coder itself detects wraps ErrCorrupt.
func Decode(body []byte, fields func(*Coder)) error {
	c := Coder{dec: true, b: body}
	fields(&c)
	if c.err == nil && c.off != len(c.b) {
		c.fail("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

// Fail records err as the outcome unless an earlier failure already did; the
// field list keeps running against zero values, as after any decode error.
func (c *Coder) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// fail records a decode failure, wrapping ErrCorrupt.
func (c *Coder) fail(format string, args ...any) {
	c.Fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// take returns the next n body bytes, or nil after a failure.
func (c *Coder) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.fail("truncated: need %d bytes at offset %d of %d", n, c.off, len(c.b))
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

// word codes one 64-bit word: encoding appends bits and returns it, decoding
// returns the next word of the body (0 after a failure).
func (c *Coder) word(bits uint64) uint64 {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, bits)
		return bits
	}
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// set stores a decoded value; encoding leaves the field untouched.
func set[T any](c *Coder, v *T, x T) {
	if c.dec {
		*v = x
	}
}

// Uint64 codes one 64-bit unsigned integer.
func (c *Coder) Uint64(v *uint64) { set(c, v, c.word(*v)) }

// Int64 codes one 64-bit signed integer.
func (c *Coder) Int64(v *int64) { set(c, v, int64(c.word(uint64(*v)))) }

// Int codes one integer as 64 bits.
func (c *Coder) Int(v *int) { set(c, v, int(int64(c.word(uint64(int64(*v)))))) }

// Float64 codes one float64 as its exact bit pattern.
func (c *Coder) Float64(v *float64) {
	set(c, v, math.Float64frombits(c.word(math.Float64bits(*v))))
}

// Bool codes one byte, 1 for true and 0 for false; decoding refuses any other
// byte.
func (c *Coder) Bool(v *bool) {
	if !c.dec {
		var b byte
		if *v {
			b = 1
		}
		c.b = append(c.b, b)
		return
	}
	*v = false
	b := c.take(1)
	switch {
	case b == nil, b[0] == 0:
	case b[0] == 1:
		*v = true
	default:
		c.fail("invalid bool byte %d", b[0])
	}
}

// String codes one length-prefixed string.
func (c *Coder) String(v *string) {
	if !c.dec {
		c.word(uint64(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	*v = string(c.run())
}

// Bytes codes one length-prefixed byte slice; decoding copies it out of the
// body.
func (c *Coder) Bytes(v *[]byte) {
	if !c.dec {
		c.word(uint64(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	*v = append([]byte(nil), c.run()...)
}

// run reads one length-prefixed byte run, aliasing the body.
func (c *Coder) run() []byte {
	n := c.word(0)
	if n > uint64(len(c.b)) {
		c.fail("length %d exceeds body", n)
		return nil
	}
	return c.take(int(n))
}

// Float64Map codes an int→float64 map in ascending key order. Decoding bounds
// the entry count by the bytes that remain before the map is sized.
func (c *Coder) Float64Map(v *map[int]float64) {
	if !c.dec {
		keys := slices.Sorted(maps.Keys(*v))
		c.word(uint64(len(keys)))
		for _, k := range keys {
			c.word(uint64(int64(k)))
			c.word(math.Float64bits((*v)[k]))
		}
		return
	}
	*v = nil
	n := c.word(0)
	if n > uint64(len(c.b)-c.off)/16+1 {
		c.fail("map size %d exceeds body", n)
		return
	}
	m := make(map[int]float64, n)
	for i := uint64(0); i < n; i++ {
		k := int(int64(c.word(0)))
		x := math.Float64frombits(c.word(0))
		if c.err != nil {
			return
		}
		m[k] = x
	}
	*v = m
}

// Tensors codes a count-prefixed tensor list, each tensor in the library
// wire format (rank, dims, data). Decoding checks the count, and each
// tensor's declared volume, against the bytes that remain before any storage
// is sized, so a corrupt header cannot trigger an enormous allocation.
func (c *Coder) Tensors(v *[]*tensor.Tensor) {
	if !c.dec {
		c.word(uint64(len(*v)))
		for i, t := range *v {
			err := errNilTensor
			if t != nil {
				c.b, err = t.AppendTo(c.b)
			}
			if err != nil {
				c.Fail(fmt.Errorf("ckpt: tensor %d: %w", i, err))
				return
			}
		}
		return
	}
	*v = nil
	n := c.word(0)
	if n > uint64(len(c.b)-c.off) {
		c.fail("tensor count %d exceeds body", n)
		return
	}
	out := make([]*tensor.Tensor, 0, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		var t tensor.Tensor
		k, err := t.DecodeFrom(c.b[c.off:])
		c.off += k
		if err != nil {
			c.fail("tensor: %v", err)
		}
		out = append(out, &t)
	}
	if c.err == nil {
		*v = out
	}
}

var errNilTensor = errors.New("ckpt: encode nil tensor")

// count codes a list length. Decoding bounds it by the bytes that remain —
// every element occupies at least one — so a corrupt count reads as
// corruption, not as a loop or an allocation of that size.
func (c *Coder) count(n int) int {
	got := c.word(uint64(n))
	if !c.dec {
		return n
	}
	if got > uint64(len(c.b)-c.off) {
		c.fail("count %d exceeds body", got)
		return 0
	}
	return int(got)
}

// TensorMap codes an id-keyed map of tensor lists (per-client optimizer
// state, codec residuals) as a list of (id, tensors) pairs in ascending id
// order. An empty map decodes as nil.
func (c *Coder) TensorMap(v *map[int][]*tensor.Tensor) {
	type pair struct {
		id int
		ts []*tensor.Tensor
	}
	pairs := make([]pair, 0, len(*v))
	for id, ts := range *v {
		pairs = append(pairs, pair{id, ts})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
	List(c, &pairs, func(c *Coder, p *pair) {
		c.Int(&p.id)
		c.Tensors(&p.ts)
	})
	if !c.dec {
		return
	}
	*v = nil
	if len(pairs) > 0 {
		*v = make(map[int][]*tensor.Tensor, len(pairs))
	}
	for _, p := range pairs {
		(*v)[p.id] = p.ts
	}
}

// List codes a count-prefixed list whose elements are laid out by elem. An
// empty list decodes as nil.
func List[T any](c *Coder, s *[]T, elem func(*Coder, *T)) {
	n := c.count(len(*s))
	if c.dec {
		*s = nil
		for i := 0; i < n && c.err == nil; i++ {
			var t T
			elem(c, &t)
			*s = append(*s, t)
		}
		return
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}
