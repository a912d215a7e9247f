package tensor

import (
	"math"
	"math/rand"
)

// FillUniform fills t with samples from U[lo, hi) drawn from rng.
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float32) {
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*rng.Float32()
	}
}

// FillNormal fills t with samples from N(mean, std²) drawn from rng.
func (t *Tensor) FillNormal(rng *rand.Rand, mean, std float32) {
	for i := range t.data {
		t.data[i] = mean + std*float32(rng.NormFloat64())
	}
}

// FillKaiming fills t with the He-normal initialization used for layers
// followed by ReLU: N(0, sqrt(2/fanIn)).
func (t *Tensor) FillKaiming(rng *rand.Rand, fanIn int) {
	if fanIn <= 0 {
		fanIn = 1
	}
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	t.FillNormal(rng, 0, std)
}

// Splitmix64 derives a well-mixed 64-bit value from a seed, suitable for
// building independent rand.Source seeds from (run, round, client) tuples.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed mixes parts into a single deterministic int64 seed.
func DeriveSeed(parts ...uint64) int64 {
	acc := uint64(0x243f6a8885a308d3)
	for _, p := range parts {
		acc = Splitmix64(acc ^ p)
	}
	return int64(acc)
}

// NewRand returns a deterministic *rand.Rand derived from parts.
func NewRand(parts ...uint64) *rand.Rand {
	return rand.New(NewSource(DeriveSeed(parts...)))
}
