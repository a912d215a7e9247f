// Package seeds centralizes the simulator's deterministic RNG-stream
// derivations. Every subsystem that needs an independent random stream —
// client-local training, cohort scheduling, codec stochastic rounding,
// synthetic-domain rendering, fleet client registration — derives it from a
// (seed, tags...) tuple through the Splitmix64 mixing chain defined here, so
// two processes given the same tuple observe the same sequence and no two
// subsystems ever share a stream by accident.
//
// The helpers are thin: they delegate to the tensor package's Splitmix64 /
// DeriveSeed / NewRand primitives (which predate this package) and are pinned
// bit-identical to the hand-rolled derivations they replaced. Changing any
// formula here invalidates every recorded run, golden checkpoint, and wire
// trace — the package test pins the exact outputs.
package seeds

import (
	"math/rand"

	"fedfteds/internal/tensor"
)

// Stream tags partition the derivation space between subsystems. A tag is
// folded into the Splitmix64 chain ahead of the variable parts (round,
// client, ...) so streams with equal variable parts but different owners
// never collide. Values are frozen: they are part of the reproducibility
// contract.
const (
	// TagCodec scopes the uplink codecs' stochastic-rounding streams
	// (historically spelled inline in comm.CodecSeed).
	TagCodec uint64 = 0xC0DEC51D
	// TagFleetClient scopes a virtual-fleet client's registration +
	// materialization stream: one stream per (fleet seed, client ID) that
	// first yields the client's descriptor draws and then, on lazy
	// materialization, continues into its dataset draws.
	TagFleetClient uint64 = 0xF1EE7C71
)

// Derive mixes parts into one deterministic int64 seed (the tensor-package
// chain: acc = Splitmix64(acc ^ part) from a fixed pi-derived start).
func Derive(parts ...uint64) int64 { return tensor.DeriveSeed(parts...) }

// Stream returns a deterministic *rand.Rand for the given derivation parts.
// This is the standard stream constructor: callers pass (seed, tag,
// variables...) and get an independent sequence.
func Stream(parts ...uint64) *rand.Rand { return tensor.NewRand(parts...) }

// Source returns a *rand.Rand seeded directly with seed, without mixing: the
// stream math/rand's own source draws for seed, used by the synthetic-data
// universes and the experiment harness's federation builder. New code should
// prefer Stream; Source exists so those call sites share one spelling while
// staying bit-identical to their recorded histories.
func Source(seed int64) *rand.Rand { return rand.New(tensor.NewSource(seed)) }

// Chain folds parts into base with the raw Splitmix64 chain
// x = Splitmix64(x ^ part) and returns the final 64-bit value. Unlike
// Derive it starts from the caller's base, matching derivations (the codec
// seed) that predate the fixed-start chain.
func Chain(base uint64, parts ...uint64) uint64 {
	x := base
	for _, p := range parts {
		x = tensor.Splitmix64(x ^ p)
	}
	return x
}

// ClientRound returns the client-local training stream for one client in one
// round: selection draws, batch shuffling and any dropout all come from it.
// Both the legacy clone-per-client path and the pooled replica path use this
// derivation, which is why they are bit-identical.
func ClientRound(runSeed int64, round, clientID int) *rand.Rand {
	return tensor.NewRand(uint64(runSeed), uint64(round), uint64(clientID))
}

// FleetClient returns a virtual-fleet client's registration stream. The
// fleet draws the client's descriptor (label distribution, dataset size,
// device speed) from the stream's prefix at registration and re-derives the
// same stream on materialization, so the descriptor and the lazily generated
// dataset always agree.
func FleetClient(fleetSeed int64, clientID int) *rand.Rand {
	return Source(FleetClientSeed(fleetSeed, clientID))
}

// FleetClientSeed is the seed of FleetClient's stream, for callers that
// reseed one *rand.Rand per client instead of building a stream each.
func FleetClientSeed(fleetSeed int64, clientID int) int64 {
	return Derive(uint64(fleetSeed), TagFleetClient, uint64(clientID))
}
