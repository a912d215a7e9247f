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

// ClientConfig is one participant: its identity and the world it rebuilds.
// None of it travels on the wire — Seed and NumClients must match the
// server's, exactly like the data partition, from which the client also
// derives its device tier — and what it trains each round arrives in the
// RoundStart.
type ClientConfig struct {
	ID         int
	NumClients int
	Seed       int64
	CodecSpec  string // "auto" (or empty) adopts the server's advertisement; a name pins it
}

// Client is one participant that has joined a federation.
type Client struct {
	cfg   ClientConfig
	sess  *comm.ClientSession
	model *models.Model
	data  *core.Client
	codec comm.Codec // negotiated uplink codec
}

// Join registers a participant with the server (or relay) behind conn.
// model is the participant's own replica of the shared pretrained model —
// each round installs the broadcast state into it — and me its local data
// and device. The uplink codec is negotiated against the server's
// advertisement.
func Join(conn comm.Conn, cfg ClientConfig, model *models.Model, me *core.Client) (*Client, error) {
	sess, welcome, err := comm.Join(conn, cfg.ID, me.Data.Len())
	if err != nil {
		return nil, err
	}
	codec, err := comm.PickCodec(welcome.Codecs, cfg.CodecSpec)
	if err != nil {
		return nil, err
	}
	log.Printf("client %d: %d local samples, joined federation of %d for %d rounds (codec %s)",
		cfg.ID, me.Data.Len(), welcome.NumClients, welcome.Rounds, codec.Name())
	return &Client{cfg: cfg, sess: sess, model: model, data: me, codec: codec}, nil
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
// train what the RoundStart's recipe describes on the groups it broadcast
// (narrowed to what this client's tier affords), and encode the trained
// groups for the wire.
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

	// In a tiered federation this client's tier falls out of the shared seed,
	// as it does on the server and every other client. The wire mask is the
	// tier mask narrowed to the groups the server actually communicates this
	// round, and the tier sets the rate the round's compute is charged at;
	// untiered (a nil mask) trains and ships them all.
	mask, train, me := []string(nil), rs.Groups, c.data
	if rs.TierDist != "" {
		dist, err := device.ParseDistribution(rs.TierDist)
		if err != nil {
			return comm.ClientUpdate{}, err
		}
		tier := dist.Assign(c.cfg.NumClients, c.cfg.Seed)[c.cfg.ID]
		if mask, err = core.TierMask(c.model, tier, rs.Groups); err != nil {
			return comm.ClientUpdate{}, err
		}
		if me, err = core.TierClient(c.data, tier); err != nil {
			return comm.ClientUpdate{}, err
		}
		train = mask
	}
	sel, err := selection.Parse(rs.Selector)
	if err != nil {
		return comm.ClientUpdate{}, err
	}
	// The hook travels as its μ; FedProx refuses a negative or non-finite one.
	var strat strategy.Strategy
	if rs.ProxMu != 0 {
		if strat, err = strategy.FedProx(rs.ProxMu); err != nil {
			return comm.ClientUpdate{}, err
		}
	}
	localCfg, err := core.NewLocalConfig(core.Config{
		LocalEpochs:    rs.LocalEpochs,
		LR:             rs.LR,
		Momentum:       rs.Momentum,
		Strategy:       strat,
		Selector:       sel,
		SelectFraction: rs.SelectFraction,
		Seed:           c.cfg.Seed,
	})
	if err != nil {
		return comm.ClientUpdate{}, err
	}
	out, err := core.LocalUpdate(localCfg, c.model, me, rs.Round, train...)
	if err != nil {
		return comm.ClientUpdate{}, err
	}

	// Encode against the broadcast reference this round trained from.
	// LocalUpdate trained a clone, so the model still holds the installed
	// broadcast values: its tensors for the shipped groups are exactly the
	// covered subset, in broadcast order, that the server's aggregator
	// rebuilds to decode against. The seed derivation matches the
	// simulator's, so a distributed client and its simulated twin quantize
	// identically.
	ref := dst
	if mask != nil {
		if ref, err = c.model.GroupStateTensors(mask); err != nil {
			return comm.ClientUpdate{}, err
		}
	}
	blob, err := c.codec.Encode(ref, out.State, comm.CodecSeed(uint64(c.cfg.Seed), rs.Round, c.cfg.ID))
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
		Codec:        comm.WireName(c.codec),
		Groups:       mask,
		NumSelected:  out.NumSelected,
		TrainSeconds: out.Cost.Total(),
		TrainLoss:    out.TrainLoss,
		MeanEntropy:  out.MeanEntropy,
	}, nil
}
