package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fedfteds/internal/tensor"
)

// Quantizing codec payloads keep the tensor blob's outer structure — a
// 4-byte little-endian tensor count, then per tensor a u8 rank and
// u32 × rank dims — and replace the f32 data with the codec's element
// encoding: u16 IEEE half floats for float16, or blocks of an f32 scale
// followed by up to int8BlockSize i8 quantized values for int8. Keeping
// the header layout means the byte-level frame spec in DESIGN.md
// describes every codec with one table.

// appendTensorHeader appends t's u8 rank + u32 dims header to buf. Rank
// and Dim read the shape in place, so the header costs no allocation; an
// encoder that sized its payload first appends into it in place.
func appendTensorHeader(buf []byte, t *tensor.Tensor) ([]byte, error) {
	if t.Rank() > 255 {
		return nil, fmt.Errorf("%w: rank %d exceeds wire format limit", ErrProtocol, t.Rank())
	}
	buf = append(buf, byte(t.Rank()))
	for i := range t.Rank() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Dim(i)))
	}
	return buf, nil
}

// readTensorHeader parses a u8 rank + u32 dims header from the front of b,
// returning the dims as they lie in b (u32 each), their volume and the bytes
// consumed. It enforces the same caps as the tensor wire format, the same
// way: on each dim while it is a uint32 and on the product in 64 bits, so a
// 32-bit peer never sees -1. The dims stay in b so that a decoder holds them
// to a tensor it already has (headerShapeIs) without building a shape.
func readTensorHeader(b []byte) (dims []byte, vol, n int, err error) {
	if len(b) < 1 {
		return nil, 0, 0, fmt.Errorf("%w: missing tensor rank", ErrProtocol)
	}
	rank := int(b[0])
	n = 1
	if len(b) < n+4*rank {
		return nil, 0, n, fmt.Errorf("%w: truncated tensor dims", ErrProtocol)
	}
	dims = b[n : n+4*rank]
	vol64 := uint64(1)
	for ; n < 1+4*rank; n += 4 {
		d := binary.LittleEndian.Uint32(b[n:])
		if vol64 *= uint64(d); d > 1<<28 || vol64 > 1<<28 {
			return nil, 0, n + 4, fmt.Errorf("%w: tensor volume exceeds limit", ErrProtocol)
		}
	}
	return dims, int(vol64), n, nil
}

// headerShapeIs reports whether t has exactly the shape of a header's dims.
// The delta codecs hold each declared shape to the broadcast reference with
// it before sizing anything, so a hostile header cannot allocate more than
// the reference already occupies.
func headerShapeIs(t *tensor.Tensor, dims []byte) bool {
	if t == nil || t.Rank() != len(dims)/4 {
		return false
	}
	for i := range t.Rank() {
		if uint32(t.Dim(i)) != binary.LittleEndian.Uint32(dims[4*i:]) {
			return false
		}
	}
	return true
}

// ensureHeaderShape returns scratch when it already has the header's shape,
// and otherwise a tensor of that shape reusing scratch's storage where it
// can; only the second builds a shape.
func ensureHeaderShape(scratch *tensor.Tensor, dims []byte) *tensor.Tensor {
	if headerShapeIs(scratch, dims) {
		return scratch
	}
	shape := make([]int, len(dims)/4)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
	}
	return tensor.Ensure(scratch, shape...)
}

// readBlobCount parses the 4-byte tensor count every tensor blob leads with.
// A tensor occupies at least its rank byte, so a count beyond the bytes that
// follow is rejected here, before anything is sized from it.
func readBlobCount(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("%w: tensor blob too short", ErrProtocol)
	}
	count := int(binary.LittleEndian.Uint32(b))
	if count > len(b)-4 {
		return 0, fmt.Errorf("%w: %d tensors declared in %d bytes", ErrProtocol, count, len(b)-4)
	}
	return count, nil
}

// quantRNG is the deterministic stochastic-rounding stream: a Splitmix64
// chain seeded per tensor, yielding 32 fresh bits per element.
type quantRNG struct{ state uint64 }

func newQuantRNG(seed uint64, tensorIndex int) quantRNG {
	return quantRNG{state: tensor.Splitmix64(seed ^ (uint64(tensorIndex)+1)*0x9e3779b97f4a7c15)}
}

// The quantizing encoders draw from one chain per tensor, and each tensor's
// bytes lie at an offset the sizes before it fix, so the chains are
// independent and the payload does not depend on the order they are stepped
// in. A chain's steps are serial, so the encoders step two chains at a time.
// They split the tensors into two streams balanced by length, longest tensor
// first onto the lighter stream (ties to stream 0), and walk both streams
// int8BlockSize elements at a time, float16 too, drawing both streams' next
// blocks in one loop: tensor.SplitmixDrawsPair, or for int8
// tensor.QuantizeInt8Pair, which quantizes in the chains' latency. A
// tensor's last block may be shorter, and its chain takes a whole block's
// draws all the same: no draw past a tensor's end is read. The split is a
// pure function of the shapes. Two is the width that pays: on the MLP state
// the two 512×512 weights are 92% of the elements, and a third stream would
// shorten the longest by 11%.

// quantJob is one tensor of a quantizing encoder's schedule: its index, the
// payload offset of its first element byte (past its header), and the
// stream that encodes it.
type quantJob struct{ ti, off, stream int }

// quantJobsOnStack is the schedule length an encoder keeps on its stack.
const quantJobsOnStack = 64

// quantSchedule writes the tensor count and every tensor's header into blob,
// which the caller sized, and appends each tensor's job to jobs, stream
// assigned. A tensor's elements take elemBytes each, plus blockBytes per
// int8BlockSize of them.
func quantSchedule(jobs []quantJob, blob []byte, ts []*tensor.Tensor, elemBytes, blockBytes int) ([]quantJob, error) {
	binary.LittleEndian.PutUint32(blob, uint32(len(ts)))
	off := 4
	for ti, t := range ts {
		h, err := appendTensorHeader(blob[off:off], t)
		if err != nil {
			return nil, err
		}
		off += len(h)
		jobs = append(jobs, quantJob{ti: ti, off: off})
		off += elemBytes*t.Len() + blockBytes*((t.Len()+int8BlockSize-1)/int8BlockSize)
	}
	slices.SortStableFunc(jobs, func(a, b quantJob) int { return ts[b.ti].Len() - ts[a.ti].Len() })
	var load [2]int
	for i := range jobs {
		s := 0
		if load[1] < load[0] {
			s = 1
		}
		jobs[i].stream = s
		load[s] += ts[jobs[i].ti].Len()
	}
	return jobs, nil
}

// quantStream walks one stream's tensors block by block for the int8 codec
// (ref set) or the float16 one, holding the chain of the tensor it is in.
type quantStream struct {
	ts, ref []*tensor.Tensor
	jobs    []quantJob
	blob    []byte
	seed    uint64
	id      int // the stream
	next    int // the next job to look at

	data, rdata []float32 // the current tensor's elements not yet taken, and int8's reference ones
	out         []byte    // the current tensor's bytes not yet written
	rng         quantRNG

	blk   []float32              // float16: the pending block's elements
	q     []byte                 // int8: the pending block's bytes
	inv   float64                // int8: its inverse scale
	u     [int8BlockSize]uint32  // float16: the pending block's draws
	delta [int8BlockSize]float32 // int8: the pending block's deltas, then stale lanes past its end
	qbuf  [int8BlockSize]byte    // int8: the pending block's bytes, then stale ones past its end
}

// ready readies the stream's next block that draws and reports whether there
// is one. For int8 it writes the scale of every block it passes; a block
// whose scale is 0 draws nothing and keeps the zero bytes of a fresh blob.
func (s *quantStream) ready() bool {
	for {
		for len(s.data) == 0 {
			for s.next < len(s.jobs) && s.jobs[s.next].stream != s.id {
				s.next++
			}
			if s.next == len(s.jobs) {
				return false
			}
			j := s.jobs[s.next]
			s.next++
			s.data, s.out, s.rng = s.ts[j.ti].Data(), s.blob[j.off:], newQuantRNG(s.seed, j.ti)
			if s.ref != nil {
				s.rdata = s.ref[j.ti].Data()
			}
		}
		n := min(len(s.data), int8BlockSize)
		if s.ref == nil {
			s.blk, s.data = s.data[:n], s.data[n:]
			return true
		}
		scale := tensor.DeltaMaxAbs(s.delta[:n], s.data[:n], s.rdata[:n]) / 127
		s.data, s.rdata = s.data[n:], s.rdata[n:]
		binary.LittleEndian.PutUint32(s.out, math.Float32bits(scale))
		s.q, s.out = s.out[4:4+n], s.out[4+n:]
		if scale != 0 {
			s.inv = 1 / float64(scale)
			return true
		}
	}
}

// write encodes the pending block: int8's bytes are in s.qbuf, and
// float16's draws in s.u.
func (s *quantStream) write() {
	if s.ref != nil {
		copy(s.q, s.qbuf[:])
		return
	}
	f16Block(s.out, s.blk, s.u[:len(s.blk)])
	s.out = s.out[2*len(s.blk):]
}

// encodeStreams encodes jobs' tensors into blob on two streams. Both chains
// step while either stream has a block left: a finished stream's chain runs
// in the live one's latency, and what it quantizes is dropped.
func encodeStreams(ts, ref []*tensor.Tensor, jobs []quantJob, blob []byte, seed uint64) {
	a := quantStream{ts: ts, ref: ref, jobs: jobs, blob: blob, seed: seed, id: 0}
	b := quantStream{ts: ts, ref: ref, jobs: jobs, blob: blob, seed: seed, id: 1}
	okA, okB := a.ready(), b.ready()
	for okA || okB {
		if ref != nil {
			tensor.QuantizeInt8Pair(&a.qbuf, &b.qbuf, &a.delta, &b.delta, a.inv, b.inv, &a.rng.state, &b.rng.state)
		} else {
			tensor.SplitmixDrawsPair(a.u[:], b.u[:], &a.rng.state, &b.rng.state)
		}
		if okA {
			a.write()
			okA = a.ready()
		}
		if okB {
			b.write()
			okB = b.ready()
		}
	}
}

// f16FromF32Stoch converts v to an IEEE binary16 with stochastic rounding
// driven by the random bits u: the value rounds to each of its two
// enclosing halves with probability proportional to proximity, so the
// quantization is unbiased in expectation. Overflow clamps to the largest
// finite half (ML states prefer saturation over infinities); values too
// small for even a stochastic promotion flush to signed zero.
func f16FromF32Stoch(v float32, u uint32) uint16 {
	bits := math.Float32bits(v)
	sign := uint16(bits>>16) & 0x8000
	exp := int(bits>>23) & 0xff
	man := bits & 0x7fffff
	if exp == 0xff { // Inf and NaN pass through
		if man != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	e := exp - 112 // re-biased binary16 exponent
	if e >= 0x1f {
		return sign | 0x7bff
	}
	if e > 0 { // normal half: 13 discarded mantissa bits drive the coin
		hm := uint32(e)<<10 + man>>13
		if u&0x1fff < man&0x1fff {
			hm++ // mantissa carry rolls into the exponent
		}
		if hm >= 0x7c00 {
			hm = 0x7bff
		}
		return sign | uint16(hm)
	}
	// Subnormal half: the exact mantissa is (2^23|man) · 2^(e-14).
	shift := uint(14 - e)
	if shift > 32 {
		return sign
	}
	m := man | 0x800000
	var hm uint32
	if shift < 32 {
		hm = m >> shift
	}
	if uint64(u)&(1<<shift-1) < uint64(m)&(1<<shift-1) {
		hm++
	}
	return sign | uint16(hm)
}

// f16Block writes blk into out as halves, stochastically rounded with the
// draws u. A value that becomes a normal half, the common case, takes
// f16FromF32Stoch's path inline, with the coin as the borrow of u's low 13
// bits less the mantissa's; every other value calls it.
func f16Block(out []byte, blk []float32, u []uint32) {
	out, u = out[:2*len(blk)], u[:len(blk)]
	for j, v := range blk {
		bits := math.Float32bits(v)
		if e := bits>>23&0xff - 112; e-1 < 30 { // 1 <= e <= 30
			man := bits & 0x7fffff
			hm := e<<10 + man>>13 + (u[j]&0x1fff-man&0x1fff)>>31
			binary.LittleEndian.PutUint16(out[2*j:], uint16(bits>>16)&0x8000|uint16(min(hm, 0x7bff)))
		} else {
			binary.LittleEndian.PutUint16(out[2*j:], f16FromF32Stoch(v, u[j]))
		}
	}
}

// f16ToF32 widens an IEEE binary16 to float32 exactly.
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch exp {
	case 0x1f:
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	case 0:
		v := float32(man) * 0x1p-24
		if sign != 0 {
			return -v
		}
		return v
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// float16Codec ships every element as an IEEE half float: exactly half
// the data bytes of identity, no reference needed, stochastic rounding
// keeps the aggregate unbiased.
type float16Codec struct{}

func (float16Codec) Name() string         { return "float16" }
func (float16Codec) NeedsReference() bool { return false }

func (float16Codec) Encode(_, ts []*tensor.Tensor, seed uint64) ([]byte, error) {
	size := 4
	for _, t := range ts {
		size += 1 + 4*t.Rank() + 2*t.Len()
	}
	blob := make([]byte, size)
	var jobBuf [quantJobsOnStack]quantJob
	jobs, err := quantSchedule(jobBuf[:0], blob, ts, 2, 0)
	if err != nil {
		return nil, err
	}
	encodeStreams(ts, nil, jobs, blob, seed)
	return blob, nil
}

func (float16Codec) Decode(_, scratch []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error) {
	count, err := readBlobCount(b)
	if err != nil {
		return nil, err
	}
	out := reuseTensorSlice(scratch, count)
	off := 4
	for i := range out {
		dims, vol, n, err := readTensorHeader(b[off:])
		if err != nil {
			return nil, fmt.Errorf("comm: float16 decode tensor %d: %w", i, err)
		}
		off += n
		if len(b) < off+2*vol {
			return nil, fmt.Errorf("%w: float16 tensor %d truncated", ErrProtocol, i)
		}
		out[i] = ensureHeaderShape(out[i], dims)
		data := out[i].Data()
		for j := range data {
			data[j] = f16ToF32(binary.LittleEndian.Uint16(b[off+2*j:]))
		}
		off += 2 * vol
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after tensors", ErrProtocol, len(b)-off)
	}
	return out, nil
}

// int8BlockSize is the quantization-group length of the int8 codec: each
// block of up to 64 consecutive elements gets its own absolute-max scale.
// Blockwise scales isolate magnitude outliers — a tensor-wide scale lets
// one large weight coarsen the step for every element, which measurably
// hurts accuracy over many federated rounds — at 4 bytes per 64 elements
// (~6% overhead, keeping the codec comfortably above 3× vs identity).
const int8BlockSize = tensor.QuantBlock

// int8Codec quantizes each tensor's delta against the broadcast reference
// to signed bytes blockwise: per block of int8BlockSize elements an f32
// scale (block maxabs/127) followed by the i8 quantized values, ~3.8×
// smaller than identity on realistic shapes. Quantizing the delta rather
// than the state is what keeps the noise harmless: one local round moves
// weights by a small fraction of their magnitude, so a step sized to the
// delta is orders of magnitude finer than a step sized to the weights.
// Stochastic rounding, seeded and deterministic, keeps the expectation
// exact. Because the payload is a delta, int8 — like topk — needs the
// reference on both ends and is refused under the buffered asynchronous
// engine; float16 is the async-safe quantizer.
type int8Codec struct{}

func (int8Codec) Name() string         { return "int8" }
func (int8Codec) NeedsReference() bool { return true }

func (int8Codec) Encode(ref, ts []*tensor.Tensor, seed uint64) ([]byte, error) {
	if len(ref) != len(ts) {
		return nil, fmt.Errorf("%w: int8 codec needs the broadcast reference (%d ref tensors for %d state tensors)",
			ErrProtocol, len(ref), len(ts))
	}
	size := 4
	for ti, t := range ts {
		if !ref[ti].SameShape(t) {
			return nil, fmt.Errorf("%w: int8 reference tensor %d shape mismatch", ErrProtocol, ti)
		}
		blocks := (t.Len() + int8BlockSize - 1) / int8BlockSize
		size += 1 + 4*t.Rank() + 4*blocks + t.Len()
	}
	blob := make([]byte, size)
	var jobBuf [quantJobsOnStack]quantJob
	jobs, err := quantSchedule(jobBuf[:0], blob, ts, 1, 4)
	if err != nil {
		return nil, err
	}
	encodeStreams(ts, ref, jobs, blob, seed)
	return blob, nil
}

func (int8Codec) Decode(ref, scratch []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error) {
	count, err := readBlobCount(b)
	if err != nil {
		return nil, err
	}
	if len(ref) != count {
		return nil, fmt.Errorf("%w: int8 codec needs the broadcast reference (%d ref tensors for %d payload tensors)",
			ErrProtocol, len(ref), count)
	}
	out := reuseTensorSlice(scratch, count)
	off := 4
	for i := range out {
		dims, vol, n, err := readTensorHeader(b[off:])
		if err != nil {
			return nil, fmt.Errorf("comm: int8 decode tensor %d: %w", i, err)
		}
		off += n
		if !headerShapeIs(ref[i], dims) {
			return nil, fmt.Errorf("%w: int8 reference tensor %d shape mismatch", ErrProtocol, i)
		}
		blocks := (vol + int8BlockSize - 1) / int8BlockSize
		if len(b) < off+4*blocks+vol {
			return nil, fmt.Errorf("%w: int8 tensor %d truncated", ErrProtocol, i)
		}
		out[i] = ensureHeaderShape(out[i], dims)
		data, rdata := out[i].Data(), ref[i].Data()
		for j := 0; j < vol; j += int8BlockSize {
			m := min(vol-j, int8BlockSize)
			scale := math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
			tensor.DequantizeInt8(data[j:j+m], rdata[j:j+m], b[off+4:off+4+m], scale)
			off += 4 + m
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after tensors", ErrProtocol, len(b)-off)
	}
	return out, nil
}
