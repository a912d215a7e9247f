package tensor

// Conv staging kernels: the moves around Conv2D's row kernel on one sample's
// planes (channel-major, each plane row-major). PadPlanes and UnpadPlanes
// copy planes between the sample and its zero-bordered staging plane;
// Unpack3x3 unpacks the 3×3 windows of the staged planes into the rows the
// row kernel multiplies, and ScatterAdd3x3 adds the gradient rows back into
// them. Each runs its vector body (stage_amd64.s on the avx2 and avx512
// tiers) and then the portable reference below from the first plane or
// window the body left: all of them on the sse and portable tiers, none
// elsewhere, since the bodies do every plane or window or none.
//
// Unpack and copy move values and compute nothing, so their contract is the
// reference's bits, NaN payloads included. The scatter performs the
// reference's one add per element per window, in ascending (oy, ox) window
// order, with the plane's value as the first operand; its lanes follow the
// lane contract (kernel.go). Every kernel checks its slices once, before it
// starts, and panics on a short one: a body never reads or writes an element
// past the planes or the rows it was given, whatever capacity lies behind
// them.

// PadPlanes copies ch planes of h×w from src into the interiors of ch planes
// of (h+2p)×(w+2p) in dst, leaving the borders as they are.
func PadPlanes(dst, src []float32, ch, h, w, p int) {
	hp, wp := h+2*p, w+2*p
	dst, src = bounded(dst, ch*hp*wp), bounded(src, ch*h*w)
	if len(src) == 0 {
		return
	}
	padPlanesGo(dst, src, ch, h, w, p, copyPlanesVec(dst[p*wp+p:], src, ch, h, w, wp, hp*wp, w, h*w))
}

// UnpadPlanes is PadPlanes backwards: the interiors of src into dst.
func UnpadPlanes(dst, src []float32, ch, h, w, p int) {
	hp, wp := h+2*p, w+2*p
	dst, src = bounded(dst, ch*h*w), bounded(src, ch*hp*wp)
	if len(dst) == 0 {
		return
	}
	unpadPlanesGo(dst, src, ch, h, w, p, copyPlanesVec(dst, src[p*wp+p:], ch, h, w, w, h*w, wp, hp*wp))
}

// Unpack3x3 writes the 3×3 windows of ch planes of h×w at the given stride,
// (h-3)/stride+1 rows of (w-3)/stride+1, into the rows of cols (windows, ch*9)
// in ascending (oy, ox) order, each row channel by channel and each channel's
// nine values window row by window row.
func Unpack3x3(cols, x []float32, ch, h, w, stride int) {
	oh, ow := windows3x3(h, w, stride)
	cols, x = bounded(cols, oh*ow*ch*9), bounded(x, ch*h*w)
	unpack3x3Go(cols, x, ch, h, w, stride, unpack3x3Vec(cols, x, ch, h, w, stride, oh, ow))
}

// ScatterAdd3x3 is Unpack3x3 backwards: it adds every value of cols to the
// plane element Unpack3x3 reads it from, window after window in ascending
// (oy, ox) order — the order each element of dx receives its addends in.
func ScatterAdd3x3(dx, cols []float32, ch, h, w, stride int) {
	oh, ow := windows3x3(h, w, stride)
	dx, cols = bounded(dx, ch*h*w), bounded(cols, oh*ow*ch*9)
	scatterAdd3x3Go(dx, cols, ch, h, w, stride, scatterAdd3x3Vec(dx, cols, ch, h, w, stride, oh, ow))
}

// windows3x3 returns the window rows and columns of an h×w plane at the
// given stride, and panics on a plane smaller than one window.
func windows3x3(h, w, stride int) (oh, ow int) {
	if h < 3 || w < 3 || stride < 1 {
		panic("tensor: 3x3 windows of a plane smaller than 3x3 or at a stride under 1")
	}
	return (h-3)/stride + 1, (w-3)/stride + 1
}

// bounded returns the first n elements of s with no capacity behind them,
// and panics when s is shorter.
func bounded(s []float32, n int) []float32 { return s[:len(s):len(s)][:n] }

// padPlanesGo continues PadPlanes from plane from.
func padPlanesGo(dst, src []float32, ch, h, w, p, from int) {
	wp := w + 2*p
	for c, off := from, p*wp+p+from*(h+2*p)*wp; c < ch; c, off = c+1, off+2*p*wp {
		for y := 0; y < h; y, off = y+1, off+wp {
			copy(dst[off:off+w], src[(c*h+y)*w:(c*h+y+1)*w])
		}
	}
}

// unpadPlanesGo continues UnpadPlanes from plane from.
func unpadPlanesGo(dst, src []float32, ch, h, w, p, from int) {
	wp := w + 2*p
	for c, off := from, p*wp+p+from*(h+2*p)*wp; c < ch; c, off = c+1, off+2*p*wp {
		for y := 0; y < h; y, off = y+1, off+wp {
			copy(dst[(c*h+y)*w:(c*h+y+1)*w], src[off:off+w])
		}
	}
}

// unpack3x3Go continues Unpack3x3 from window from: nine direct moves per
// window and channel.
func unpack3x3Go(cols, x []float32, ch, h, w, stride, from int) {
	oh, ow := windows3x3(h, w, stride)
	hw := h * w
	cols = cols[from*ch*9:]
	for oy, ox := from/ow, from%ow; oy < oh; oy, ox = oy+1, 0 {
		for ; ox < ow; ox++ {
			row := cols[:ch*9]
			cols = cols[ch*9:]
			p := oy*stride*w + ox*stride
			for cc := 0; cc < ch; cc, p = cc+1, p+hw {
				s0 := x[p : p+3]
				s1 := x[p+w : p+w+3]
				s2 := x[p+2*w : p+2*w+3]
				d := row[cc*9 : cc*9+9]
				d[0], d[1], d[2] = s0[0], s0[1], s0[2]
				d[3], d[4], d[5] = s1[0], s1[1], s1[2]
				d[6], d[7], d[8] = s2[0], s2[1], s2[2]
			}
		}
	}
}

// scatterAdd3x3Go continues ScatterAdd3x3 from window from: unpack3x3Go's
// nine moves as nine adds.
func scatterAdd3x3Go(dx, cols []float32, ch, h, w, stride, from int) {
	oh, ow := windows3x3(h, w, stride)
	hw := h * w
	cols = cols[from*ch*9:]
	for oy, ox := from/ow, from%ow; oy < oh; oy, ox = oy+1, 0 {
		for ; ox < ow; ox++ {
			row := cols[:ch*9]
			cols = cols[ch*9:]
			p := oy*stride*w + ox*stride
			for cc := 0; cc < ch; cc, p = cc+1, p+hw {
				d0 := dx[p : p+3]
				d1 := dx[p+w : p+w+3]
				d2 := dx[p+2*w : p+2*w+3]
				s := row[cc*9 : cc*9+9]
				d0[0], d0[1], d0[2] = d0[0]+s[0], d0[1]+s[1], d0[2]+s[2]
				d1[0], d1[1], d1[2] = d1[0]+s[3], d1[1]+s[4], d1[2]+s[5]
				d2[0], d2[1], d2[2] = d2[0]+s[6], d2[1]+s[7], d2[2]+s[8]
			}
		}
	}
}
