package tensor

import (
	"fmt"
	"math"
)

// The softmax lane kernels: the per-element exponentials and logarithms of
// a classifier's softmax, log-softmax, cross-entropy gradient and Shannon
// entropy, over whole batches of rows. A lane is one value of a row-major
// (rows, cols) batch. The row maxima and row sums stay scalar Go loops in
// ascending order; the vector bodies (softmax_amd64.s) replace the calls to
// Exp and Log between them, four float64 lanes at a time on the avx2 and
// avx512 tiers. A body walks the batch in groups of four lanes of one row
// (the entropy body ignores rows), the last group of a row masked, and stops
// at the first group with a lane that reaches a special case of Exp or Log
// (a NaN, an infinity, an overflow, a subnormal or underflowing result),
// returning its first lane. The Go reference below does that group, and the
// body goes on after it; on the sse and portable tiers the reference does
// every lane.

// SoftmaxScratch holds the workspace of the softmax kernels for one caller:
// a float64 per value, a float32 per row and, for SoftmaxEntropyRows, a
// float32 per value, grown on first use and reused after, so a training
// loop allocates nothing per step. The zero value is ready to use; a
// scratch is not safe for concurrent use.
type SoftmaxScratch struct {
	e      []float64
	top, p []float32
}

// rows checks a batch of len(x) values in rows of cols against dst's length
// and returns the scratch's per-value and per-row buffers for it.
func (s *SoftmaxScratch) rows(op string, dst, x []float32, cols int) (e []float64, top []float32) {
	if len(dst) != len(x) || len(x) > 0 && (cols <= 0 || len(x)%cols != 0) {
		panic(fmt.Sprintf("tensor: %s: %d values in rows of %d into %d", op, len(x), cols, len(dst)))
	}
	if len(x) == 0 {
		return nil, nil
	}
	if cap(s.e) < len(x) {
		s.e = make([]float64, len(x))
	}
	if n := len(x) / cols; cap(s.top) < n {
		s.top = make([]float32, n)
	}
	return s.e[:len(x)], s.top[:len(x)/cols]
}

// SoftmaxRows writes into p the softmax of each row of x at temperature
// rho: p[j] = float32(e[j])·float32(1/Σe), e[j] = Exp(float64(x[j] - max)/rho)
// with max the row's largest value (its first NaN, if it starts with one)
// and Σe summed in ascending order.
func SoftmaxRows(ws *SoftmaxScratch, p, x []float32, cols int, rho float64) {
	e, top := ws.rows("softmax", p, x, cols)
	rowMax(top, x, cols)
	softmaxExp(e, x, top, cols, rho)
	for i := range top {
		row := e[i*cols : (i+1)*cols]
		var sum float64
		for _, v := range row {
			sum += v
		}
		inv := float32(1.0 / sum)
		out := p[i*cols : (i+1)*cols]
		for j, v := range row {
			out[j] = float32(v) * inv
		}
	}
}

// LogSoftmaxRows writes into dst the log-softmax of each row of x:
// dst[j] = x[j] - (float32(Log(Σe)) + max), with e and max as SoftmaxRows'
// at temperature 1.
func LogSoftmaxRows(ws *SoftmaxScratch, dst, x []float32, cols int) {
	e, top := ws.rows("log-softmax", dst, x, cols)
	rowMax(top, x, cols)
	softmaxExp(e, x, top, cols, 1)
	for i, m := range top {
		var sum float64
		for _, v := range e[i*cols : (i+1)*cols] {
			sum += v
		}
		lse := float32(Log(sum)) + m
		out := dst[i*cols : (i+1)*cols]
		for j, v := range x[i*cols : (i+1)*cols] {
			out[j] = v - lse
		}
	}
}

// EntropyRows writes into h the Shannon entropy (natural log) of each row of
// the row-stochastic p: h = -Σ float64(q·Log(q)) over the row's values
// q = float64(p[j]) with p[j] > 0, in ascending order. Other values add
// nothing, matching the limit p·log p → 0.
func EntropyRows(ws *SoftmaxScratch, h []float64, p []float32, cols int) {
	if len(h)*max(cols, 0) != len(p) || len(h) > 0 && cols <= 0 {
		panic(fmt.Sprintf("tensor: entropy: %d values in rows of %d into %d", len(p), cols, len(h)))
	}
	if cap(ws.e) < len(p) {
		ws.e = make([]float64, len(p))
	}
	t := ws.e[:len(p)]
	entropyTerms(t, p)
	for i := range h {
		var s float64
		for _, v := range t[i*cols : (i+1)*cols] {
			s -= v
		}
		h[i] = s
	}
}

// SoftmaxEntropyRows writes into h the Shannon entropy of each row's
// temperature softmax, EntropyRows of SoftmaxRows' probabilities, with the
// probabilities in the scratch.
func SoftmaxEntropyRows(ws *SoftmaxScratch, h []float64, x []float32, cols int, rho float64) {
	if cap(ws.p) < len(x) {
		ws.p = make([]float32, len(x))
	}
	p := ws.p[:len(x)]
	SoftmaxRows(ws, p, x, cols, rho)
	EntropyRows(ws, h, p, cols)
}

// CrossEntropyGrad writes the gradient of a batch's mean cross-entropy with
// respect to its logits: d[j] = float32((Exp(float64(logp[j])) - ind)·scale)
// over rows of cols log-probabilities, ind 1 at the row's label and 0
// elsewhere, scale 1/(rows·ρ).
func CrossEntropyGrad(d, logp []float32, labels []int, cols int, scale float64) {
	if len(labels)*max(cols, 0) != len(logp) || len(d) != len(logp) || len(labels) > 0 && cols <= 0 {
		panic(fmt.Sprintf("tensor: cross-entropy gradient: %d values for %d labels in rows of %d into %d",
			len(logp), len(labels), cols, len(d)))
	}
	for k := 0; k < len(d); {
		if expAVX2 {
			if k = crossEntropyGradVec(d, logp, labels, cols, scale, k); k == len(d) {
				return
			}
		}
		end := groupEnd(k, cols, len(d))
		crossEntropyGradGo(d, logp, labels, cols, scale, k, end)
		k = end
	}
}

// rowMax writes the largest value of each row of x (cols values) to top:
// the first value, replaced by every later one above it. The replacement is
// on the bits, which the compiler turns into a conditional move: which of
// a row's logits is the larger is a coin flip to a branch predictor.
func rowMax(top, x []float32, cols int) {
	for i := range top {
		row := x[i*cols : (i+1)*cols]
		m := math.Float32bits(row[0])
		for _, v := range row[1:] {
			if b := math.Float32bits(v); v > math.Float32frombits(m) {
				m = b
			}
		}
		top[i] = math.Float32frombits(m)
	}
}

// softmaxExp writes e[k] = Exp(float64(x[k] - max[row])/rho) for every
// value.
func softmaxExp(e []float64, x, top []float32, cols int, rho float64) {
	for k := 0; k < len(x); {
		if expAVX2 {
			if k = softmaxExpVec(e, x, top, cols, rho, k); k == len(x) {
				return
			}
		}
		end := groupEnd(k, cols, len(x))
		softmaxExpGo(e, x, top, cols, rho, k, end)
		k = end
	}
}

// entropyTerms writes t[k] = float64(q·Log(q)), q = float64(p[k]), where
// p[k] > 0 and +0 elsewhere.
func entropyTerms(t []float64, p []float32) {
	for k := 0; k < len(p); {
		end := len(p)
		if elemAVX2 {
			if k = entropyTermsVec(t, p, k); k == len(p) {
				return
			}
			end = min(k+4, len(p))
		}
		entropyTermsGo(t, p, k, end)
		k = end
	}
}

// groupEnd is where the reference stops when it takes over from a vector
// body at lane k of a batch of n lanes in rows of cols: the end of k's
// group, four lanes on or the end of its row, when a body runs, and n when
// none does.
func groupEnd(k, cols, n int) int {
	if !expAVX2 {
		return n
	}
	return min(k+4, (k/cols+1)*cols)
}

// softmaxExpGo is softmaxExp's reference over lanes [from, to).
func softmaxExpGo(e []float64, x, top []float32, cols int, rho float64, from, to int) {
	for k := from; k < to; {
		i := k / cols
		m, end := top[i], min(to, (i+1)*cols)
		for ; k < end; k++ {
			e[k] = Exp(float64(x[k]-m) / rho)
		}
	}
}

// crossEntropyGradGo is CrossEntropyGrad's reference over lanes [from, to).
func crossEntropyGradGo(d, logp []float32, labels []int, cols int, scale float64, from, to int) {
	for k := from; k < to; {
		i := k / cols
		y, end := i*cols+labels[i], min(to, (i+1)*cols)
		for ; k < end; k++ {
			ind := 0.0
			if k == y {
				ind = 1
			}
			d[k] = float32((Exp(float64(logp[k])) - ind) * scale)
		}
	}
}

// entropyTermsGo is entropyTerms' reference over lanes [from, to).
func entropyTermsGo(t []float64, p []float32, from, to int) {
	for k := from; k < to; k++ {
		t[k] = 0
		if v := p[k]; v > 0 {
			q := float64(v)
			t[k] = float64(q * Log(q))
		}
	}
}
