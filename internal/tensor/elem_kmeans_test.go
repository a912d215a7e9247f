package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// newDistIn draws rows×dim values of x and dim·kp transposed center
// coordinates, each replaced by a planted special with probability
// plant/256 (in the centers, the specials widened to float64).
func newDistIn(rows, dim, kp int, seed int64, plant uint8) (x []float32, ct []float64) {
	in := newElemIn(1, rows*dim+dim*kp, seed, plant)
	x = in.x[:rows*dim]
	ct = make([]float64, dim*kp)
	for i, v := range in.x[rows*dim:] {
		ct[i] = float64(v) * (1 + 1e-9*float64(i%3))
	}
	return x, ct
}

// checkCenterDistances holds CenterDistances on the active tier to its
// portable reference from row 0, bit for bit. A NaN distance may carry
// another payload: k-means reads only the order of distances, under which
// every NaN is alike.
func checkCenterDistances(t *testing.T, x []float32, ct []float64, dim int) {
	t.Helper()
	kp, rows := len(ct)/dim, len(x)/dim
	got, want := make([]float64, rows*kp), make([]float64, rows*kp)
	for i := range got {
		got[i] = math.Float64frombits(0xDEADBEEF)
	}
	CenterDistances(got, x, ct, dim)
	centerDistancesGo(want, x, ct, dim, 0)
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("rows=%d dim=%d kp=%d tier=%v: row %d center %d = %#x, portable %#x",
				rows, dim, kp, activeTier, i/kp, i%kp, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestCenterDistancesMatchPortableEveryTier runs the k-means distance kernel
// on every tier this machine offers, over 1-13 dimensions, lane counts that
// are and are not multiples of 4 and row counts from none to a few dozen,
// and checks that the vector body runs every row exactly when it should.
func TestCenterDistancesMatchPortableEveryTier(t *testing.T) {
	orig := activeTier
	defer setTier(orig)
	for _, tier := range detectedFeatures.tiers() {
		setTier(tier)
		for dim := 1; dim <= 13; dim++ {
			for _, kp := range []int{1, 3, 4, 5, 8, 12, 16, 20} {
				for _, rows := range []int{0, 1, 2, 7, 33} {
					for _, plant := range []uint8{0, 32} {
						x, ct := newDistIn(rows, dim, kp, int64(dim*1000+kp*10+rows)+int64(plant), plant)
						checkCenterDistances(t, x, ct, dim)
					}
					x, ct := newDistIn(rows, dim, kp, 1, 0)
					body, want := centerDistancesVec(make([]float64, rows*kp), x, ct, dim, kp), 0
					if tier >= TierAVX2 && kp%4 == 0 {
						want = rows
					}
					if body != want {
						t.Fatalf("tier %v: distance body ran %d of %d rows (dim %d, kp %d), want %d", tier, body, rows, dim, kp, want)
					}
				}
			}
		}
	}
}

// laneDists are the distances newLaneDists draws from, so that rows hold
// ties: +0, the extreme subnormals, ordinary values, MaxFloat64 and +Inf.
var laneDists = []float64{0, math.Float64frombits(1), math.Float64frombits(0x000FFFFFFFFFFFFF), 0.25, 1, 1, 7.5, math.MaxFloat64, math.Inf(1)}

// newLaneDists draws rows×kp distances from laneDists, each replaced by a
// NaN of either sign with some payload with probability plant/256.
func newLaneDists(rows, kp int, seed int64, plant uint8) []float64 {
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, rows*kp)
	for i := range d {
		d[i] = laneDists[rng.Intn(len(laneDists))]
		if rng.Intn(256) < int(plant) {
			d[i] = math.Float64frombits(0x7FF0000000000000 | uint64(rng.Intn(2))<<63 | uint64(rng.Int63n(1<<52-1)+1))
		}
	}
	return d
}

// checkNearestLanes holds NearestLanes on the active tier, and its portable
// reference, to k-means' serial loop over float comparisons.
func checkNearestLanes(t *testing.T, dist []float64, rows int) {
	t.Helper()
	got, ref := make([]int32, rows), make([]int32, rows)
	for i := range got {
		got[i], ref[i] = -1, -1
	}
	NearestLanes(got, dist)
	if rows > 0 {
		nearestLanesGo(ref, dist, 0)
	}
	for r := range rows {
		d := dist[r*len(dist)/rows : (r+1)*len(dist)/rows]
		best, bestD := 0, d[0]
		for c := 1; c < len(d); c++ {
			if d[c] < bestD {
				best, bestD = c, d[c]
			}
		}
		if got[r] != int32(best) || ref[r] != int32(best) {
			t.Fatalf("rows=%d lanes=%d tier=%v: row %d picks lane %d (portable %d), the serial loop %d; row %v",
				rows, len(d), activeTier, r, got[r], ref[r], best, d)
		}
	}
}

// TestNearestLanesMatchSerialEveryTier runs the nearest-center pick on every
// tier this machine offers, over 1-20 lanes and up to a dozen rows of tied,
// infinite, subnormal and NaN distances, and checks that the vector body
// runs every row exactly when it should.
func TestNearestLanesMatchSerialEveryTier(t *testing.T) {
	orig := activeTier
	defer setTier(orig)
	for _, tier := range detectedFeatures.tiers() {
		setTier(tier)
		for kp := 1; kp <= 20; kp++ {
			for rows := 0; rows <= 12; rows++ {
				for _, plant := range []uint8{0, 24, 128, 255} {
					checkNearestLanes(t, newLaneDists(rows, kp, int64(kp*100+rows)+int64(plant), plant), rows)
				}
				body, want := nearestLanesVec(make([]int32, rows), make([]float64, rows*kp), kp), 0
				if tier >= TierAVX2 && kp%4 == 0 {
					want = rows
				}
				if body != want {
					t.Fatalf("tier %v: nearest body ran %d of %d rows (%d lanes), want %d", tier, body, rows, kp, want)
				}
			}
		}
	}
}

// FuzzKmeansKernelsMatchPortable holds k-means' kernels on the active tier
// to their references: CenterDistances on 0-63 rows, 1-16 dimensions and
// 1-40 lanes, NaN, ±Inf, ±0, subnormals and ±MaxFloat32 planted, under
// checkCenterDistances' rules; and NearestLanes, against the serial loop, on
// those distances and on as many rows of tied, infinite and NaN ones; and
// SumRowsByGroup on as many rows into 1-40 groups, under
// checkSumRowsByGroup's rules.
func FuzzKmeansKernelsMatchPortable(f *testing.F) {
	f.Add(uint8(40), uint8(11), uint8(8), int64(1), uint8(0))
	f.Add(uint8(7), uint8(3), uint8(12), int64(2), uint8(40))
	f.Add(uint8(1), uint8(1), uint8(4), int64(3), uint8(255))
	f.Add(uint8(9), uint8(5), uint8(6), int64(4), uint8(16))
	f.Fuzz(func(t *testing.T, rows, dim, kp uint8, seed int64, plant uint8) {
		r, d, k := int(rows)%64, int(dim)%16+1, int(kp)%40+1
		x, ct := newDistIn(r, d, k, seed, plant)
		checkCenterDistances(t, x, ct, d)
		dist := make([]float64, r*k)
		centerDistancesGo(dist, x, ct, d, 0)
		checkNearestLanes(t, dist, r)
		checkNearestLanes(t, newLaneDists(r, k, seed, plant), r)
		w := min(d, k)
		acc, x32, group := newGroupIn(r, w, d, k, seed, plant)
		checkSumRowsByGroup(t, acc, x32, group, w, d)
	})
}

// checkSumRowsByGroup holds SumRowsByGroup on the active tier to its
// portable reference from row 0, bit for bit, on groups drawn from
// [0, groups): each lane of sum starts from the planted values of acc. A NaN
// sum may carry another payload where a NaN meets a NaN.
func checkSumRowsByGroup(t *testing.T, acc []float64, x []float32, group []int32, w, stride int) {
	t.Helper()
	got, want := append([]float64(nil), acc...), append([]float64(nil), acc...)
	SumRowsByGroup(got, x, group, w, stride)
	if len(group) > 0 {
		sumRowsByGroupGo(want, x, group, w, stride, 0)
	}
	for i := range want {
		g, v := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(v) && !(g != g && v != v) {
			t.Fatalf("rows=%d w=%d stride=%d tier=%v: sum %d = %#x, portable %#x",
				len(group), w, stride, activeTier, i, math.Float64bits(g), math.Float64bits(v))
		}
	}
}

// newGroupIn draws rows of x at the given stride, one group per row from
// [0, groups), and a starting sum of groups×w values, specials planted with
// probability plant/256.
func newGroupIn(rows, w, stride, groups int, seed int64, plant uint8) (acc []float64, x []float32, group []int32) {
	n := 0
	if rows > 0 {
		n = (rows-1)*stride + w
	}
	in := newElemIn(1, n+groups*w, seed, plant)
	x = in.x[:n]
	acc = make([]float64, groups*w)
	for i, v := range in.x[n:] {
		acc[i] = float64(v)
	}
	rng := rand.New(rand.NewSource(seed))
	group = make([]int32, rows)
	for i := range group {
		group[i] = int32(rng.Intn(groups))
	}
	return acc, x, group
}

// TestSumRowsByGroupMatchesPortableEveryTier runs the center-update kernel
// on every tier this machine offers, over widths 1-13 at their own stride
// and a longer one, 1-9 groups and rows from none to a few dozen, and checks
// that the vector body runs every row on the tiers that have it, stopping
// at the first group outside sum.
func TestSumRowsByGroupMatchesPortableEveryTier(t *testing.T) {
	orig := activeTier
	defer setTier(orig)
	for _, tier := range detectedFeatures.tiers() {
		setTier(tier)
		for w := 1; w <= 13; w++ {
			for _, stride := range []int{w, w + 3} {
				for _, groups := range []int{1, 2, 5, 9} {
					for _, rows := range []int{0, 1, 6, 33} {
						for _, plant := range []uint8{0, 32} {
							acc, x, group := newGroupIn(rows, w, stride, groups, int64(w*1000+stride*100+groups*10+rows)+int64(plant), plant)
							checkSumRowsByGroup(t, acc, x, group, w, stride)
						}
						acc, x, group := newGroupIn(rows, w, stride, groups, 1, 0)
						body, want := sumRowsByGroupVec(acc, x, group, w, stride), 0
						if tier >= TierAVX2 {
							want = rows
						}
						if body != want {
							t.Fatalf("tier %v: group-sum body ran %d of %d rows (w %d), want %d", tier, body, rows, w, want)
						}
						for _, bad := range []int32{int32(groups), -1} {
							if rows > 2 {
								group[2] = bad
								if body, want = sumRowsByGroupVec(acc, x, group, w, stride), 0; tier >= TierAVX2 {
									want = 2
								}
								if body != want {
									t.Fatalf("tier %v: group-sum body ran %d rows past group %d of %d, want %d", tier, body, bad, groups, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
