package federation

import (
	"fmt"
	"log"
	"math"
	"slices"

	"fedfteds/internal/comm"
	"fedfteds/internal/tensor"
)

// RelayConfig shapes one relay process, as cmd/fedrelay's flags validate it.
type RelayConfig struct {
	// RelayID is the relay's identity in the root's ID space (disjoint from
	// leaf client IDs only by convention; the root never mixes the two).
	RelayID int
	// Leaves is the number of leaf clients the relay waits for before
	// joining the root.
	Leaves int
	// Rounds is the planned number of communication rounds, forwarded to
	// leaves in their Welcome. It must match the root's plan; Relay verifies
	// the root's Welcome against it.
	Rounds int
	// Engine tunes the leaf-side fault tolerance (deadline, quorum), the
	// same knobs fedserver exposes for a flat federation.
	Engine comm.EngineConfig
	// LeafCodec is the uplink codec advertised to this region's leaves
	// (comm.ParseCodec spec; empty means identity). It is
	// independent of the upstream codec, which the relay adopts from the
	// root's Welcome: a relay can decode int8 leaf updates and forward the
	// folded region under topk, or vice versa — each hop re-encodes.
	LeafCodec string
}

// Validate checks the configuration bounds, for Relay and for cmd/fedrelay's
// flags alike, so each message names the flag its field comes from. A
// region round needs a fractional quorum in (0, 1].
func (c RelayConfig) Validate() error {
	if _, err := comm.ParseCodec(c.LeafCodec); err != nil {
		return fmt.Errorf("relay: -codec: %w", err)
	}
	if c.RelayID < 0 {
		return fmt.Errorf("relay: -relay-id %d is negative", c.RelayID)
	}
	if c.Leaves <= 0 {
		return fmt.Errorf("relay: -leaves %d must be positive", c.Leaves)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("relay: -rounds %d must be positive", c.Rounds)
	}
	if c.Engine.Quorum <= 0 || c.Engine.Quorum > 1 {
		return fmt.Errorf("relay: -quorum %v outside (0, 1]", c.Engine.Quorum)
	}
	if c.Engine.RoundDeadline < 0 {
		return fmt.Errorf("relay: -round-deadline %v is negative", c.Engine.RoundDeadline)
	}
	return c.Engine.Validate()
}

// Relay drives one relay to completion. A relay is a server to its leaves and
// a client of its root: it accepts Leaves leaf registrations, joins the root
// declaring the region's summed dataset size, then answers every round the
// root starts as a client does, with one ClientUpdate — the region's weighted
// average over its leaves (relayRound). The RoundStart reaches the leaves as
// the root sent it, client recipe and all. It returns nil on a clean
// root-initiated shutdown, and comm.ErrProtocol when the root changes its
// broadcast Groups or Layout mid-run. Whatever it returns, the leaf
// federation is shut down and root is closed, so neither the leaves nor the
// root wait on a dead region.
func Relay(root comm.Conn, leafListener comm.Listener, cfg RelayConfig) error {
	defer root.Close()
	if err := cfg.Validate(); err != nil {
		return err
	}
	sess, err := comm.AcceptClientsCodec(leafListener, cfg.Leaves, cfg.Rounds, cfg.LeafCodec)
	if err != nil {
		return err
	}
	// Validate parsed the spec already; decoding is stateless, so one
	// instance serves every leaf and every round.
	leafCodec, _ := comm.ParseCodec(cfg.LeafCodec)
	shutdown := func(reason string) {
		if err := sess.Shutdown(reason); err != nil {
			log.Printf("relay %d: leaf shutdown: %v", cfg.RelayID, err)
		}
	}
	size := 0
	for _, id := range sess.ClientIDs() {
		size += sess.LocalSize(id)
	}
	cs, welcome, err := comm.Join(root, cfg.RelayID, size)
	if err != nil {
		shutdown("relay failed to join root")
		return err
	}
	// The upstream codec is whatever the root advertises (identity when it
	// advertises nothing): the relay re-encodes the folded region under it,
	// so the leaf and upstream hops compress independently. The instance
	// lives for the whole session — topk carries the region's error-feedback
	// residual across rounds, exactly like a client's.
	upCodec, err := comm.PickCodec(welcome.Codecs, "auto")
	if err != nil {
		shutdown("relay/root codec mismatch")
		return fmt.Errorf("relay %d: %w", cfg.RelayID, err)
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
		cfg.RelayID, cfg.Leaves, size, welcome.Rounds, leafCodec.Name(), upCodec.Name())
	// One region aggregator and one broadcast decode buffer serve the run:
	// the aggregator is built over the first round's Groups and Layout, which
	// every later round must repeat.
	rs, ok, err := cs.NextRound()
	groups, layout := rs.Groups, rs.Layout
	agg, aggErr := comm.NewMaskedStreamAggregator(nil, groups, layout)
	var bcast []*tensor.Tensor
	for ; ; rs, ok, err = cs.NextRound() {
		if err != nil {
			shutdown("root connection lost")
			return fmt.Errorf("relay %d: %w", cfg.RelayID, err)
		}
		if !ok {
			shutdown("root shut the federation down")
			return nil
		}
		err = aggErr
		if !slices.Equal(rs.Groups, groups) || !slices.Equal(rs.Layout, layout) {
			err = fmt.Errorf("%w: root broadcasts groups %v layout %v, the run started with %v %v",
				comm.ErrProtocol, rs.Groups, rs.Layout, groups, layout)
		}
		if err == nil {
			bcast, err = comm.DecodeTensorsReuse(bcast, rs.State)
		}
		if err != nil {
			shutdown("root broadcast a round the region cannot fold")
			return fmt.Errorf("relay %d: round %d: %w", cfg.RelayID, rs.Round, err)
		}
		u, out, err := relayRound(engine, agg, bcast, cfg.RelayID, rs, leafCodec, upCodec)
		if err != nil {
			shutdown("region round failed")
			return fmt.Errorf("relay %d: round %d: %w", cfg.RelayID, rs.Round, err)
		}
		log.Printf("relay %d: round %d: %d leaves folded (%d timed out, %d dropped)",
			cfg.RelayID, rs.Round, len(out.Reported), len(out.TimedOut), len(out.Dropped))
		if err := cs.SendUpdate(u); err != nil {
			shutdown("root connection lost")
			return fmt.Errorf("relay %d: forwarding round %d: %w", cfg.RelayID, rs.Round, err)
		}
	}
}

// relayRound runs one downstream round — rebroadcast rs to every live leaf,
// stream their updates into agg, which checks each as Serve's does — and
// packages the result as the region's update for the root. Leaves are
// weighed by their selected sample count (paper Eq. 5), and the update
// declares the region's summed count, so the root's fold of region averages
// is the flat federation's weighted average. Over a Layout, layers no leaf
// covered fall back to bcast, so the update always covers the whole
// broadcast. bcast, the round's decoded broadcast, is also the codec
// reference on both hops: leafCodec decodes leaf payloads, upCodec
// re-encodes the folded state.
func relayRound(engine *comm.RoundEngine, agg *comm.StreamAggregator, bcast []*tensor.Tensor, relayID int, rs comm.RoundStart, leafCodec, upCodec comm.Codec) (comm.ClientUpdate, comm.RoundOutcome, error) {
	agg.SetCodec(leafCodec, bcast)
	out, err := engine.RunRound(rs, agg.Add)
	if err != nil {
		return comm.ClientUpdate{}, out, err
	}
	sum := agg.Sum()
	fused, err := agg.Finish()
	if err != nil {
		return comm.ClientUpdate{}, out, err
	}
	// The upstream seed derives from (round, relay ID) alone — the relay has
	// no federation seed flag, and the root never re-derives these bits, so
	// determinism across relay restarts is all that matters.
	blob, err := upCodec.Encode(bcast, fused, comm.CodecSeed(0, rs.Round, relayID))
	if err != nil {
		return comm.ClientUpdate{}, out, err
	}
	entropy := math.NaN()
	if sum.EntropyWeight > 0 {
		entropy = sum.EntropySum / sum.EntropyWeight
	}
	// NumSelected is positive: the round folded at least one update, and
	// Add refuses a count below one.
	return comm.ClientUpdate{
		ClientID:     relayID,
		Round:        rs.Round,
		Version:      rs.Version,
		State:        blob,
		Codec:        comm.WireName(upCodec),
		NumSelected:  sum.NumSelected,
		TrainSeconds: sum.TrainSeconds,
		TrainLoss:    sum.WeightedLoss / float64(sum.NumSelected),
		MeanEntropy:  entropy,
	}, out, nil
}
