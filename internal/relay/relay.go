// Package relay implements the mid-tier aggregator of a hierarchical
// federation: a relay accepts a region's leaf clients with the same
// session/engine machinery fedserver uses, folds their updates into a
// single weighted delta per round, and forwards that delta upstream as one
// RegionUpdate frame. The root then composes region deltas through its
// strategy exactly as it would compose client updates, so a relay tree is
// invisible to the strategy, tier and checkpoint layers: for the default
// selected-size weighting,
//
//	sum_r W_r * regionAvg_r / sum_r W_r  ==  sum_i w_i * x_i / sum_i w_i,
//
// the flat federation's weighted average, because each relay reports its
// region's weight mass W_r = sum of its leaves' w_i alongside the average.
package relay

import (
	"fmt"
	"log"
	"math"

	"fedfteds/internal/comm"
)

// codecName renders a possibly-nil codec for logs.
func codecName(c comm.Codec) string {
	if c == nil {
		return comm.CodecIdentity
	}
	return c.Name()
}

// Config shapes one relay process.
type Config struct {
	// RelayID is the relay's identity in the root's ID space (disjoint from
	// leaf client IDs only by convention; the root never mixes the two).
	RelayID int
	// Leaves is the number of leaf clients the relay waits for before
	// joining the root.
	Leaves int
	// Rounds is the planned number of communication rounds, forwarded to
	// leaves in their Welcome. It must match the root's plan; Run verifies
	// the root's Welcome against it.
	Rounds int
	// Engine tunes the leaf-side fault tolerance (deadline, quorum), the
	// same knobs fedserver exposes for a flat federation.
	Engine comm.EngineConfig
	// LeafCodec is the uplink codec advertised to this region's leaves
	// (comm.ParseCodec spec; empty or "identity" keeps legacy frames). It is
	// independent of the upstream codec, which the relay adopts from the
	// root's Welcome: a relay can decode int8 leaf updates and forward the
	// folded region under topk, or vice versa — each hop re-encodes.
	LeafCodec string
}

// Validate checks the configuration bounds.
func (c Config) Validate() error {
	if c.RelayID < 0 {
		return fmt.Errorf("relay: negative relay id %d", c.RelayID)
	}
	if c.Leaves <= 0 {
		return fmt.Errorf("relay: %d leaves, need at least 1", c.Leaves)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("relay: %d rounds, need at least 1", c.Rounds)
	}
	if c.LeafCodec != "" {
		if _, err := comm.ParseCodec(c.LeafCodec); err != nil {
			return fmt.Errorf("relay: leaf codec: %w", err)
		}
	}
	return c.Engine.Validate()
}

// Run drives one relay to completion: accept Leaves leaf registrations,
// join the root as a relay (declaring the region's summed dataset size and
// population), then for every round the root starts, rebroadcast it to the
// region, fold the leaf updates, and send the folded RegionUpdate upstream.
// Returns nil on a clean root-initiated shutdown. On any error the leaf
// federation is shut down before returning, so leaves never hang on a dead
// region.
func Run(root comm.Conn, leafListener comm.Listener, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sess, err := comm.AcceptClientsCodec(leafListener, cfg.Leaves, cfg.Rounds, cfg.LeafCodec)
	if err != nil {
		return err
	}
	var leafCodec comm.Codec
	if cfg.LeafCodec != "" && cfg.LeafCodec != comm.CodecIdentity {
		// Validate ran in cfg.Validate; decoding is stateless, so one
		// instance serves every leaf and every round.
		leafCodec, _ = comm.ParseCodec(cfg.LeafCodec)
	}
	shutdown := func(reason string) {
		if err := sess.Shutdown(reason); err != nil {
			log.Printf("relay %d: leaf shutdown: %v", cfg.RelayID, err)
		}
	}
	size := 0
	for _, id := range sess.ClientIDs() {
		size += sess.LocalSize(id)
	}
	cs, welcome, err := comm.JoinRelay(root, cfg.RelayID, size, cfg.Leaves)
	if err != nil {
		shutdown("relay failed to join root")
		return err
	}
	// The upstream codec is whatever the root advertises (identity when it
	// advertises nothing): the relay re-encodes the folded region under it,
	// so the leaf and upstream hops compress independently. The instance
	// lives for the whole session — topk carries the region's error-feedback
	// residual across rounds, exactly like a client's.
	upPick, err := comm.PickCodec(welcome.Codecs, "auto")
	if err != nil {
		shutdown("relay/root codec mismatch")
		return fmt.Errorf("relay %d: %w", cfg.RelayID, err)
	}
	var upCodec comm.Codec
	if upPick.Name() != comm.CodecIdentity {
		upCodec = upPick
	}
	if welcome.Rounds != cfg.Rounds {
		shutdown("relay/root round plan mismatch")
		return fmt.Errorf("relay %d: root plans %d rounds, -rounds says %d — leaves were already promised %d",
			cfg.RelayID, welcome.Rounds, cfg.Rounds, cfg.Rounds)
	}
	engine, err := comm.NewRoundEngine(sess, cfg.Engine)
	if err != nil {
		shutdown("relay engine misconfigured")
		return err
	}
	log.Printf("relay %d: region ready, %d leaves (size %d), root planned %d rounds, codecs leaf=%s up=%s",
		cfg.RelayID, cfg.Leaves, size, welcome.Rounds, codecName(leafCodec), codecName(upCodec))
	for {
		rs, ok, err := cs.NextRound()
		if err != nil {
			shutdown("root connection lost")
			return fmt.Errorf("relay %d: %w", cfg.RelayID, err)
		}
		if !ok {
			shutdown("root shut the federation down")
			return nil
		}
		ru, out, err := foldRound(engine, cfg.RelayID, rs, leafCodec, upCodec)
		if err != nil {
			shutdown("region round failed")
			return fmt.Errorf("relay %d: round %d: %w", cfg.RelayID, rs.Round, err)
		}
		log.Printf("relay %d: round %d: %d leaves folded (%d timed out, %d dropped)",
			cfg.RelayID, rs.Round, len(out.Reported), len(out.TimedOut), len(out.Dropped))
		if err := cs.SendRegion(ru); err != nil {
			shutdown("root connection lost")
			return fmt.Errorf("relay %d: forwarding round %d: %w", cfg.RelayID, rs.Round, err)
		}
	}
}

// foldRound runs one downstream round — rebroadcast rs to every live leaf,
// stream their updates into a weighted average — and packages the result as
// the upstream RegionUpdate. Leaves are weighed by their selected sample
// count (paper Eq. 5); strategy-level weighting applies upstream, at region
// granularity. When rs carries a Layout the region aggregates per layer
// (tiered leaves ship masked updates), with layers no leaf covered falling
// back to the broadcast state, so the forwarded delta always covers the
// full broadcast layout. leafCodec decodes the region's leaf payloads,
// upCodec re-encodes the folded state for the root (nil keeps the respective
// hop on legacy lossless frames). Both decode and re-encode reference the
// round's broadcast state, which each hop's peer holds by construction.
func foldRound(engine *comm.RoundEngine, relayID int, rs comm.RoundStart, leafCodec, upCodec comm.Codec) (comm.RegionUpdate, comm.RoundOutcome, error) {
	// The broadcast state is the codec reference on both hops, the shape
	// every leaf update is validated against, and the fallback for layers no
	// leaf covered.
	bcast, err := comm.DecodeTensors(rs.State)
	if err != nil {
		return comm.RegionUpdate{}, comm.RoundOutcome{}, fmt.Errorf("relay %d: decoding broadcast: %w", relayID, err)
	}
	agg := comm.NewStreamAggregator()
	if len(rs.Layout) > 0 {
		if agg, err = comm.NewMaskedStreamAggregator(nil, rs.Groups, rs.Layout); err != nil {
			return comm.RegionUpdate{}, comm.RoundOutcome{}, err
		}
	}
	agg.SetCodec(leafCodec, bcast)

	var (
		numSelected  int
		trainSeconds float64
		lossSum      float64
		entropySum   float64
		entropyW     float64
		weightSum    float64
	)
	out, err := engine.RunRound(rs, func(u comm.ClientUpdate) error {
		if err := agg.Add(u); err != nil {
			return err
		}
		w := float64(u.NumSelected)
		numSelected += u.NumSelected
		trainSeconds += u.TrainSeconds
		lossSum += w * u.TrainLoss
		weightSum += w
		if !math.IsNaN(u.MeanEntropy) {
			entropySum += w * u.MeanEntropy
			entropyW += w
		}
		return nil
	})
	if err != nil {
		return comm.RegionUpdate{}, out, err
	}

	total := agg.Total()
	fused, err := agg.Finish()
	if err != nil {
		return comm.RegionUpdate{}, out, err
	}
	var blob []byte
	codecEcho := ""
	if upCodec == nil {
		blob, err = comm.EncodeTensors(fused)
	} else {
		// The upstream seed derives from (round, relay ID) alone — the relay
		// has no federation seed flag, and the root never re-derives these
		// bits, so determinism across relay restarts is all that matters.
		codecEcho = upCodec.Name()
		blob, err = upCodec.Encode(bcast, fused, comm.CodecSeed(0, rs.Round, relayID))
	}
	if err != nil {
		return comm.RegionUpdate{}, out, err
	}

	loss := 0.0
	if weightSum > 0 {
		loss = lossSum / weightSum
	}
	entropy := math.NaN()
	if entropyW > 0 {
		entropy = entropySum / entropyW
	}
	return comm.RegionUpdate{
		RelayID:      relayID,
		Round:        rs.Round,
		Version:      rs.Version,
		State:        blob,
		Codec:        codecEcho,
		Weight:       total,
		Clients:      len(out.Reported),
		NumSelected:  numSelected,
		TrainSeconds: trainSeconds,
		TrainLoss:    loss,
		MeanEntropy:  entropy,
	}, out, nil
}
