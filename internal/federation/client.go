package federation

import (
	"fmt"
	"log"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/device"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

// ClientConfig is one participant's local configuration, as cmd/fedclient's
// flags validate it. None of it travels on the wire: Seed, TierDist and
// NumClients must match the server's, exactly like the data partition.
type ClientConfig struct {
	ID          int
	NumClients  int
	Seed        int64
	Temperature float64              // hardened-softmax temperature ρ
	Strat       strategy.Strategy    // only its client-side hook applies (fedprox); nil is plain fedavg
	TierDist    *device.Distribution // nil when untiered
	CodecSpec   string               // "auto" (or empty) adopts the server's advertisement; a name pins it
}

// DefaultTierSpec is the tier distribution -tiers means when -tier-dist is
// not given: a paper-style mix of constrained, moderate and full devices.
const DefaultTierSpec = "low:1,mid:2,full:1"

// TierFlags resolves the -tiers/-tier-dist pair fedserver and fedclient both
// take — one resolution, because the two must derive identical tier
// assignments from the shared seed. A spec implies tier mode, tier mode
// without a spec means DefaultTierSpec, neither is untiered (nil).
func TierFlags(tiers bool, spec string) (*device.Distribution, error) {
	if spec == "" {
		if !tiers {
			return nil, nil
		}
		spec = DefaultTierSpec
	}
	dist, err := device.ParseDistribution(spec)
	if err != nil {
		return nil, fmt.Errorf("-tier-dist: %w", err)
	}
	return dist, nil
}

// Client is one participant that has joined a federation.
type Client struct {
	cfg    ClientConfig
	sess   *comm.ClientSession
	rounds int // the server's planned round count
	model  *models.Model
	data   *core.Client
	tier   string     // "" when untiered
	codec  comm.Codec // negotiated uplink codec; nil is identity (legacy frames)
}

// Join registers a participant with the server (or relay) behind conn.
// model is the participant's own replica of the shared pretrained model —
// each round installs the broadcast state into it — and me its local data
// and device. In tier mode the capability tier falls out of the shared seed
// (the same derivation on every fleet member and the server), is declared at
// join, and scales the simulated compute rate. The uplink codec is negotiated
// against the server's advertisement.
func Join(conn comm.Conn, cfg ClientConfig, model *models.Model, me *core.Client) (*Client, error) {
	c := &Client{cfg: cfg, model: model, data: me}
	if cfg.TierDist != nil {
		c.tier = cfg.TierDist.Assign(cfg.NumClients, cfg.Seed)[cfg.ID]
		prof, err := device.Lookup(c.tier)
		if err != nil {
			return nil, err
		}
		scaled := *me // me may be shared with the caller's world: scale a copy
		scaled.Device.FLOPSRate *= prof.FLOPSFactor
		c.data = &scaled
		mask, err := core.TierMask(model, c.tier, model.TrainableGroupNames())
		if err != nil {
			return nil, err
		}
		log.Printf("client %d: tier %s, trainable groups %v", cfg.ID, c.tier, mask)
	}
	sess, welcome, err := comm.JoinTiered(conn, cfg.ID, me.Data.Len(), c.tier)
	if err != nil {
		return nil, err
	}
	codec, err := comm.PickCodec(welcome.Codecs, cfg.CodecSpec)
	if err != nil {
		return nil, err
	}
	// Identity stays nil so the legacy encode path (and its exact wire
	// bytes) is untouched.
	if codec.Name() != comm.CodecIdentity {
		c.codec = codec
	}
	c.sess, c.rounds = sess, welcome.Rounds
	log.Printf("client %d: %d local samples, joined federation of %d for %d rounds (codec %s)",
		cfg.ID, me.Data.Len(), welcome.NumClients, welcome.Rounds, codec.Name())
	return c, nil
}

// Run answers every round the server starts until it shuts the session
// down. before, when non-nil, sees each RoundStart first; its error ends the
// run without a reply, the connection severed — a crashed process, as fault
// injection needs it. after, when non-nil, sees each update once sent.
func (c *Client) Run(before func(comm.RoundStart) error, after func(comm.ClientUpdate)) error {
	for {
		rs, ok, err := c.sess.NextRound()
		if err != nil {
			return err
		}
		if !ok {
			log.Printf("client %d: server shut the session down", c.cfg.ID)
			return c.sess.Close()
		}
		if before != nil {
			if err := before(rs); err != nil {
				_ = c.sess.Close() // vanish without a goodbye
				return err
			}
		}
		u, err := c.round(rs)
		if err != nil {
			return err
		}
		if err := c.sess.SendUpdate(u); err != nil {
			return err
		}
		if after != nil {
			after(u)
		}
	}
}

// round is the client's half of one round: install the broadcast state,
// fine-tune the partial model on the entropy-selected subset, and encode the
// trained groups for the wire.
func (c *Client) round(rs comm.RoundStart) (comm.ClientUpdate, error) {
	stateTs, err := comm.DecodeTensors(rs.State)
	if err != nil {
		return comm.ClientUpdate{}, err
	}
	dst, err := c.model.GroupStateTensors(rs.Groups)
	if err != nil {
		return comm.ClientUpdate{}, err
	}
	if len(dst) != len(stateTs) {
		return comm.ClientUpdate{}, fmt.Errorf("round %d: got %d state tensors, want %d", rs.Round, len(stateTs), len(dst))
	}
	for i := range dst {
		if err := dst[i].CopyFrom(stateTs[i]); err != nil {
			return comm.ClientUpdate{}, err
		}
	}

	// The wire mask is the tier mask narrowed to the groups the server
	// actually communicates this round; nil (untiered) trains and ships them
	// all.
	var mask []string
	if c.tier != "" {
		if mask, err = core.TierMask(c.model, c.tier, rs.Groups); err != nil {
			return comm.ClientUpdate{}, err
		}
	}
	localCfg, err := core.NewLocalConfig(core.Config{
		Rounds:         c.rounds,
		LocalEpochs:    rs.LocalEpochs,
		LR:             0.05,
		Momentum:       0.5,
		FinetunePart:   models.FinetuneModerate,
		TrainGroups:    mask,
		Selector:       selection.Entropy{Temperature: c.cfg.Temperature},
		SelectFraction: rs.SelectFraction,
		Strategy:       c.cfg.Strat,
		Seed:           c.cfg.Seed,
	})
	if err != nil {
		return comm.ClientUpdate{}, err
	}
	out, err := core.LocalUpdate(localCfg, c.model, c.data, rs.Round)
	if err != nil {
		return comm.ClientUpdate{}, err
	}

	var blob []byte
	codecEcho := ""
	if c.codec == nil {
		blob, err = comm.EncodeTensors(out.State)
	} else {
		// Encode against the broadcast reference this round trained from.
		// LocalUpdate trained a clone, so the model still holds the installed
		// broadcast values: its tensors for the shipped groups are exactly
		// the covered subset, in broadcast order, that the server's
		// aggregator rebuilds to decode against. The seed derivation matches
		// the simulator's, so a distributed client and its simulated twin
		// quantize identically.
		ref := dst
		if mask != nil {
			if ref, err = c.model.GroupStateTensors(mask); err != nil {
				return comm.ClientUpdate{}, err
			}
		}
		codecEcho = c.codec.Name()
		blob, err = c.codec.Encode(ref, out.State, comm.CodecSeed(uint64(c.cfg.Seed), rs.Round, c.cfg.ID))
	}
	if err != nil {
		return comm.ClientUpdate{}, err
	}
	return comm.ClientUpdate{
		ClientID: c.cfg.ID,
		Round:    rs.Round,
		// Version echoes the dispatch's model version; the server measures
		// staleness from its own record of it, not from the echo.
		Version:      rs.Version,
		State:        blob,
		Codec:        codecEcho,
		Groups:       mask,
		NumSelected:  out.NumSelected,
		TrainSeconds: out.Cost.Total(),
		TrainLoss:    out.TrainLoss,
		MeanEntropy:  out.MeanEntropy,
	}, nil
}
