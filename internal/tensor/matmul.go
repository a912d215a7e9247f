package tensor

import "fmt"

// matmulParallelThreshold is the minimum number of result elements before the
// matmul kernels fan work out to the worker pool. Below this, dispatch
// overhead dominates.
const matmulParallelThreshold = 64 * 64

// Every multiply reduces to one row kernel: dst[i, 0:n] += Σ_p A'[i,p] ·
// B'[p, 0:n], onto a cleared dst or, for the accumulating MatMulAdd and
// MatMulTransAAdd, onto dst's own values. A' (M, K) is row-major with
// contiguous reduction axis and B' (K, N) is row-major with contiguous output
// axis. An operand that lacks the required layout is transposed into pooled
// scratch first (pure data movement); a @ bᵀ with a big b and a small batch
// instead runs as (b @ aᵀ)ᵀ, transposing the batch and the result
// (MatMulTransB has the rule). The kernel vectorizes across output lanes j,
// never across the reduction: every output element accumulates its K terms
// from +0 strictly in ascending-p order with one rounding per multiply and
// per add, and the finished sum is added to dst once, so results are
// bit-identical to the straightforward triple loop (plus that one add), to
// the pre-SIMD kernels, and to any level of row-partitioned parallelism.

// MatMul computes dst = a @ b for rank-2 tensors a (M, K) and b (K, N),
// writing into dst (M, N). dst must not alias a or b. Large products are
// split across the persistent worker pool by row blocks; the result is
// identical regardless of parallelism.
func MatMul(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		return fmt.Errorf("%w: matmul wants rank-2, got %v @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul %v @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	runGemm(dst.data, a.data, b.data, m, n, k)
	return nil
}

// MatMulNew is MatMul allocating its destination.
func MatMulNew(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("%w: matmul wants rank-2, got %v @ %v", ErrShape, a.shape, b.shape)
	}
	dst := New(a.shape[0], b.shape[1])
	if err := MatMul(dst, a, b); err != nil {
		return nil, err
	}
	return dst, nil
}

// MatMulAdd computes dst += a @ b for a (M, K) and b (K, N) into dst (M, N):
// each element's product sum is formed as MatMul forms it and added to dst
// once, so the result is a product into a workspace followed by Tensor.Add,
// bit for bit, without the workspace. Backward passes use it to land weight
// gradients straight in the gradient accumulator.
func MatMulAdd(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		return fmt.Errorf("%w: matmul wants rank-2, got %v @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul %v @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	gemmAcc(dst.data, a.data, b.data, m, n, k)
	return nil
}

// MatMulTransAAdd computes dst += aᵀ @ b for a (K, M) and b (K, N) into dst
// (M, N), the MatMulAdd contract without materializing the transpose for
// the caller: a's columns are packed into pooled scratch so the kernel
// reduces over contiguous memory.
func MatMulTransAAdd(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		return fmt.Errorf("%w: matmulTA wants rank-2, got %v,%v,%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmulTA %v @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	at := getScratch(k * m)
	PackTranspose(*at, a.data, k, m)
	gemmAcc(dst.data, *at, b.data, m, n, k)
	putScratch(at)
	return nil
}

// MatMulTransB computes dst = a @ bᵀ for a (M, K) and b (N, K) into dst (M, N).
// One operand has to be transposed into pooled scratch. By default it is b,
// so the kernel streams its rows. When b no longer sits in L1 beside the
// batch (over 8192 values; below that neither side wins consistently) and
// transposing a and the result instead at least halves the values moved
// (2·M·(K+N) <= N·K) — a dense layer's forward, a 512x512 weight against a
// batch of 16 — it computes dstᵀ (N, M) = b @ aᵀ, reading b where it lies,
// and transposes the small result into dst; EXPERIMENTS.md ("Where a TCP
// round's time goes") has the shape sweep behind both constants. Same bits
// either way: element (i, j) is the same K products (factors swapped; IEEE
// multiplication commutes) summed in the same ascending-p order by the same
// row kernel over independent lanes. Only the payload a NaN·NaN product keeps
// follows operand order, and that is not arithmetic: a NaN is a NaN in both.
func MatMulTransB(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		return fmt.Errorf("%w: matmulTB wants rank-2, got %v,%v,%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmulTB %v @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	if n*k > 8192 && 2*m*(k+n) <= n*k {
		sp := getScratch(k*m + n*m)
		at, dt := (*sp)[:k*m], (*sp)[k*m:]
		PackTranspose(at, a.data, m, k)
		runGemm(dt, b.data, at, n, m, k)
		PackTranspose(dst.data, dt, n, m)
		putScratch(sp)
		return nil
	}
	bt := getScratch(k * n)
	PackTranspose(*bt, b.data, n, k)
	runGemm(dst.data, a.data, *bt, m, n, k)
	putScratch(bt)
	return nil
}

// Cache blocking: when B (K, N) is far larger than a core's L2, the row
// kernels re-stream it from L3/DRAM for every block of output rows. Past
// gemmBlockBytes, gemmAcc instead packs B into column panels of at most
// gemmPanelBytes (sized to sit in L2 with room for A rows and dst) and
// reuses each packed panel across every output row before moving on.
// Panels split only the output columns j — each dst element still
// accumulates its full K reduction in one ascending-p pass — so blocking
// never changes a single result bit. Both knobs are vars so tests can force
// the blocked path on small shapes.
var (
	gemmBlockBytes = 2 << 20
	gemmPanelBytes = 192 << 10
)

// gemmPanelCols returns the panel width for a blocked (k × n) B.
func gemmPanelCols(n, k int) int {
	nc := gemmPanelBytes / (4 * k)
	nc &^= 15 // whole 16-lane chunks
	if nc < 64 {
		nc = 64 // below this, packing overhead dominates reuse
	}
	if nc > n {
		nc = n
	}
	return nc
}

// runGemm computes dst (m, n) = a (m, k) @ b (k, n): dst cleared, then the
// accumulating path.
func runGemm(dd, ad, bd []float32, m, n, k int) {
	clear(dd[: m*n : m*n])
	gemmAcc(dd, ad, bd, m, n, k)
}

// gemmAcc accumulates dst (m, n) += a (m, k) @ b (k, n), picking between the
// flat path (serial or row-parallel) and the cache-blocked panel path.
func gemmAcc(dd, ad, bd []float32, m, n, k int) {
	if n == 0 || m == 0 || k == 0 {
		return
	}
	if 4*k*n > gemmBlockBytes && n > gemmPanelCols(n, k) {
		gemmBlocked(dd, ad, bd, m, n, k)
		return
	}
	if m*n >= matmulParallelThreshold && m > 1 {
		parallelGemmAcc(dd, ad, bd, m, n, n, k)
		return
	}
	gemmAccImpl(dd, ad, bd, m, n, n, k)
}

// gemmBlocked is the panel path of gemmAcc: k >= 1.
func gemmBlocked(dd, ad, bd []float32, m, n, k int) {
	nc := gemmPanelCols(n, k)
	sp := getScratch(k * nc)
	panel := *sp
	for j0 := 0; j0 < n; j0 += nc {
		w := nc
		if j0+w > n {
			w = n - j0
		}
		for p := 0; p < k; p++ {
			copy(panel[p*w:p*w+w], bd[p*n+j0:p*n+j0+w])
		}
		if m*w >= matmulParallelThreshold && m > 1 {
			parallelGemmAcc(dd[j0:], ad, panel[:k*w], m, w, n, k)
		} else {
			gemmAccImpl(dd[j0:], ad, panel[:k*w], m, w, n, k)
		}
	}
	putScratch(sp)
}

// GemmRows computes dst (rows, n) = a (rows, k) @ b (k, n), all row-major and
// contiguous, serially on the calling goroutine through the active dispatch
// tier: the entry for code that is itself running inside ParallelFor (conv's
// per-sample tiles), where MatMul's own fan-out is not allowed. Same
// arithmetic as MatMul, so the same bits.
func GemmRows(dst, a, b []float32, rows, n, k int) {
	clear(dst[:rows*n])
	if rows == 0 || n == 0 || k == 0 {
		return
	}
	gemmAccImpl(dst, a, b, rows, n, n, k)
}

// gemmRowGo is the portable row kernel: dst[j] += Σ_p a[p]·b[p*n+j], the
// reference the assembly kernels must match bit for bit. Each element's sum
// is formed from +0 in ascending p, in a chunk of accumulators as the
// assembly keeps it in registers, and only then added to dst[j]: one more
// rounding, so from a cleared dst it is the sum itself (a sum begun at +0
// never reaches -0), and onto a gradient it is exactly G + dW. Every term is
// accumulated — no zero-multiplier shortcut — so amd64 and non-amd64 produce
// identical bits even on non-finite data (0·Inf must yield NaN on both).
func gemmRowGo(dst, a, b []float32, k, n int) {
	var acc [16]float32
	for j0 := 0; j0 < n; j0 += len(acc) {
		s := acc[:min(len(acc), n-j0)]
		clear(s)
		for p := 0; p < k; p++ {
			av := a[p]
			for j, bv := range b[p*n+j0 : p*n+j0+len(s)] {
				s[j] += av * bv
			}
		}
		for j, v := range s {
			dst[j0+j] += v
		}
	}
}

// PackTranspose writes the transpose of src (rows, cols) into dst (cols,
// rows); dst must not overlap src. It moves data and computes nothing, so
// every tier writes the same bytes: the vector body transposes each whole
// 8×8 block in registers and packTransposeGo the strips it leaves.
func PackTranspose(dst, src []float32, rows, cols int) {
	packTransposeGo(dst, src, rows, cols, packTransposeVec(dst, src, rows, cols))
}

// Transpose returns a new tensor that is the transpose of a rank-2 tensor.
func (t *Tensor) Transpose() (*Tensor, error) {
	if t.Rank() != 2 {
		return nil, fmt.Errorf("%w: transpose on rank-%d", ErrShape, t.Rank())
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	PackTranspose(out.data, t.data, m, n)
	return out, nil
}
