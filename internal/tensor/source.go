package tensor

import "math/rand"

// Source is math/rand's generator — the additive lagged-Fibonacci source
// rand.NewSource returns — reproduced bit for bit: the same 607-entry state,
// the same Uint64 and Int63 outputs, the same seed normalisation. Only the
// seeding method differs. math/rand walks one serial chain of 1,841 Lehmer
// steps x ← 48271·x mod (2³¹−1) per seed; the state reads chain elements
// 21…1841, and element k is seed·48271ᵏ mod (2³¹−1), so each state entry
// is three multiplies against a power table with no dependency on its
// neighbours. Source computes an entry when a draw first reads it, so Seed
// is O(1) and a stream pays only for the state its draws touch.
type Source struct {
	tap, feed int
	// seed is the normalised seed. fresh counts the draws left, of the 334
	// after Seed, that read a state entry for the first time (see fill);
	// later draws read only entries those have filled.
	seed  uint64
	fresh int
	vec   [srcLen]int64
}

var _ rand.Source64 = (*Source)(nil)

const (
	srcLen   = 607
	srcTap   = 273
	int32max = 1<<31 - 1
)

var (
	// srcPow[i][j] = 48271^(3i+j+21) mod (2³¹−1): the chain elements that
	// state entry i is built from, for a seed of 1.
	srcPow [srcLen][3]uint64
	// srcCooked is math/rand's table of pre-run values XORed into every
	// seeded state, recovered by init through the package's public API.
	srcCooked [srcLen]int64
)

func init() {
	x := uint64(1)
	for k := 1; k <= 20+3*srcLen; k++ {
		x = x * 48271 % int32max
		if k > 20 {
			srcPow[(k-21)/3][(k-21)%3] = x
		}
	}
	// A source seeded with 1 starts with tap 0 and feed 334, and its j-th
	// Uint64 adds vec[606−j] into vec[(333−j) mod 607] and returns the sum.
	// After 607 draws every entry has been written exactly once, so the
	// draws are the final state; undoing the steps newest first — the last
	// one used tap 0 and feed 334 — restores the seeded state, whose XOR
	// with the bare chain values is the table.
	ref := rand.NewSource(1).(rand.Source64)
	s := Source{feed: srcLen - srcTap}
	for range srcLen {
		s.step() // moves tap and feed; the written value is replaced
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%srcLen, (s.feed+1)%srcLen
	}
	bare := Source{seed: 1}
	for i := range srcCooked {
		srcCooked[i] = s.vec[i] ^ bare.entry(i) // entry(i) reads srcCooked[i], still 0
	}
}

// NewSource returns a Source seeded with seed. A *rand.Rand around it draws
// exactly what one around math/rand's own source for seed draws.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets s to the state math/rand's source seeded with seed starts in.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed = 0, srcLen-srcTap
	s.seed, s.fresh = uint64(seed), srcLen-srcTap
}

// entry is state entry i as math/rand's Seed leaves it.
func (s *Source) entry(i int) int64 {
	p, x := &srcPow[i], s.seed
	return int64(x*p[0]%int32max)<<40 ^ int64(x*p[1]%int32max)<<20 ^ int64(x*p[2]%int32max) ^ srcCooked[i]
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	if s.fresh > 0 {
		s.fill()
	}
	return uint64(s.step())
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	if s.fresh > 0 {
		s.fill()
	}
	return s.step() & (1<<63 - 1)
}

// fill computes the state entries the next draw is the first to read: draw
// j after Seed reads feed entry 333−j and, for j < 273, tap entry 606−j.
func (s *Source) fill() {
	j := srcLen - srcTap - s.fresh
	if j < srcTap {
		s.vec[srcLen-1-j] = s.entry(srcLen - 1 - j)
	}
	s.vec[srcLen-srcTap-1-j] = s.entry(srcLen - srcTap - 1 - j)
	s.fresh--
}

// step is math/rand's generator step, small enough to inline into the two
// methods above.
func (s *Source) step() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}
