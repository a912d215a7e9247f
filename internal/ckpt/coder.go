package ckpt

import (
	"sort"

	"fedfteds/internal/tensor"
)

// Coder runs one field list in both directions: over an Encoder it appends
// each field it is handed, over a Decoder it fills each field from the body.
// A section layout written once as a func(*Coder) is therefore its writer,
// its reader and its specification, and the three cannot drift apart. Errors
// are sticky, as in Decoder.
type Coder struct {
	enc *Encoder // set by Encode
	dec *Decoder // set by Decode
	err error    // first encode-side failure
}

// Encode runs fields over a fresh body and returns the bytes it produced.
func Encode(fields func(*Coder)) ([]byte, error) {
	c := Coder{enc: &Encoder{}}
	fields(&c)
	return c.enc.Bytes(), c.err
}

// Decode runs fields over body, which they must consume exactly. Every
// failure wraps ErrCorrupt.
func Decode(body []byte, fields func(*Coder)) error {
	c := Coder{dec: NewDecoder(body)}
	fields(&c)
	return c.dec.Done()
}

// Fail records err as the outcome unless an earlier failure already did; the
// field list keeps running against zero values, as after any decode error.
func (c *Coder) Fail(err error) {
	if c.dec != nil {
		if c.dec.err == nil {
			c.dec.err = err
		}
	} else if c.err == nil {
		c.err = err
	}
}

// code is the direction switch every fixed-layout field shares.
func code[T any](c *Coder, v *T, put func(*Encoder, T), get func(*Decoder) T) {
	if c.dec != nil {
		*v = get(c.dec)
		return
	}
	put(c.enc, *v)
}

// Uint64 codes one 64-bit unsigned integer.
func (c *Coder) Uint64(v *uint64) { code(c, v, (*Encoder).PutUint64, (*Decoder).Uint64) }

// Int64 codes one 64-bit signed integer.
func (c *Coder) Int64(v *int64) { code(c, v, (*Encoder).PutInt64, (*Decoder).Int64) }

// Int codes one integer as 64 bits.
func (c *Coder) Int(v *int) { code(c, v, (*Encoder).PutInt, (*Decoder).Int) }

// Float64 codes one float64 as its exact bit pattern.
func (c *Coder) Float64(v *float64) { code(c, v, (*Encoder).PutFloat64, (*Decoder).Float64) }

// String codes one length-prefixed string.
func (c *Coder) String(v *string) { code(c, v, (*Encoder).PutString, (*Decoder).String) }

// Bytes codes one length-prefixed byte slice.
func (c *Coder) Bytes(v *[]byte) { code(c, v, (*Encoder).PutBytes, (*Decoder).Bytes) }

// Float64Map codes an int→float64 map in ascending key order.
func (c *Coder) Float64Map(v *map[int]float64) {
	code(c, v, (*Encoder).PutFloat64Map, (*Decoder).Float64Map)
}

// Tensors codes a count-prefixed tensor list.
func (c *Coder) Tensors(v *[]*tensor.Tensor) {
	code(c, v, func(e *Encoder, ts []*tensor.Tensor) {
		if err := e.PutTensors(ts); err != nil {
			c.Fail(err)
		}
	}, (*Decoder).Tensors)
}

// count codes a list length. Decoding bounds it by the bytes that remain —
// every element occupies at least one — so a corrupt count reads as
// corruption, not as a loop or an allocation of that size.
func (c *Coder) count(n int) int {
	if c.dec == nil {
		c.enc.PutUint64(uint64(n))
		return n
	}
	got := c.dec.Uint64()
	if got > uint64(len(c.dec.b)-c.dec.off) {
		c.dec.fail("count %d exceeds body", got)
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
	if c.dec == nil {
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
	if c.dec != nil {
		*s = nil
		for i := 0; i < n && c.dec.err == nil; i++ {
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
