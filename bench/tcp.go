package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/seeds"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// frameHeader is TCPConn's per-envelope framing: 4-byte length, 1-byte type.
const frameHeader = 5

// countingConn counts the bytes a dialled connection carries each way. It
// sits on the client side only; the server keeps the connections the
// listener handed it, deadlines and all.
type countingConn struct {
	comm.Conn
	bytes *atomic.Int64
}

func (c countingConn) Send(e comm.Envelope) error {
	c.bytes.Add(int64(len(e.Body)) + frameHeader)
	return c.Conn.Send(e)
}

func (c countingConn) Recv() (comm.Envelope, error) {
	e, err := c.Conn.Recv()
	if err == nil {
		c.bytes.Add(int64(len(e.Body)) + frameHeader)
	}
	return e, err
}

// tcpFederation is the generated input of a TCP workload.
type tcpFederation struct {
	spec    models.Spec
	clients []*core.Client
	test    *data.Dataset
	domain  *data.Domain
}

func buildTCPFederation(env runEnv) (tcpFederation, error) {
	suite, err := data.NewStandardSuite(env.seed)
	if err != nil {
		return tcpFederation{}, err
	}
	rng := seeds.Source(env.seed + 29)
	fed := tcpFederation{
		spec: models.Spec{Arch: models.ArchMLP, InputShape: []int{suite.Universe.ObsDim},
			NumClasses: suite.Target10.Spec.NumClasses, Hidden: 512, InitSeed: env.seed + 101},
		clients: make([]*core.Client, env.procs),
		domain:  suite.Target10,
	}
	for i := range fed.clients {
		ds, err := suite.Target10.GenerateBalanced(16, rng)
		if err != nil {
			return tcpFederation{}, err
		}
		fed.clients[i] = &core.Client{ID: i, Data: ds, Device: simtime.Device{FLOPSRate: 1e9}}
	}
	if fed.test, err = suite.Target10.GenerateBalanced(64, rng); err != nil {
		return tcpFederation{}, err
	}
	return fed, nil
}

// tcpLocalConfig is the local-training configuration of a TCP client: full
// model, every sample, one epoch.
func tcpLocalConfig(seed int64, rounds int) (core.Config, error) {
	return core.NewLocalConfig(core.Config{Rounds: rounds, LocalEpochs: 1, LR: clientLR, Momentum: clientMomentum,
		FinetunePart: models.FinetuneFull, Selector: selection.All{}, SelectFraction: 1,
		Seed: seeds.Derive(uint64(seed), 0x7C9)})
}

// tcpCounters is shared between the server loop and the client goroutines.
type tcpCounters struct {
	frames  atomic.Int64 // bytes on the dialled connections, framing included
	payload atomic.Int64 // encoded state bytes, both directions
	up      atomic.Int64 // encoded update bytes
}

// runTCPClient is the shape of cmd/fedclient's loop, with a span around each
// public call.
func runTCPClient(addr string, cl *core.Client, fed tcpFederation, cfg core.Config, tr *tracer, ctr *tcpCounters) error {
	raw, err := comm.DialTCP(addr, 5*time.Second)
	if err != nil {
		return err
	}
	sess, welcome, err := comm.Join(countingConn{Conn: raw, bytes: &ctr.frames}, cl.ID, cl.Data.Len())
	if err != nil {
		return errors.Join(err, raw.Close())
	}
	codec, err := comm.PickCodec(welcome.Codecs, "auto")
	if err != nil {
		return errors.Join(err, sess.Close())
	}
	global, err := models.Build(fed.spec)
	if err != nil {
		return errors.Join(err, sess.Close())
	}
	for {
		t0 := tr.now()
		rs, ok, err := sess.NextRound()
		if err != nil {
			return err
		}
		if !ok {
			return sess.Close()
		}
		t := tr.add("comm.client_next_round", t0, rs.Round, cl.ID)
		stateTs, err := comm.DecodeTensors(rs.State)
		if err != nil {
			return err
		}
		t = tr.add("comm.client_decode", t, rs.Round, cl.ID)
		dst, err := global.GroupStateTensors(rs.Groups)
		if err != nil {
			return err
		}
		if len(dst) != len(stateTs) {
			return fmt.Errorf("round %d: got %d state tensors, want %d", rs.Round, len(stateTs), len(dst))
		}
		for i := range dst {
			if err := dst[i].CopyFrom(stateTs[i]); err != nil {
				return err
			}
		}
		t = tr.add("core.install", t, rs.Round, cl.ID)
		out, err := core.LocalUpdate(cfg, global, cl, rs.Round)
		if err != nil {
			return err
		}
		t = tr.add("core.local_update", t, rs.Round, cl.ID)
		var blob []byte
		echo := ""
		if codec.Name() == comm.CodecIdentity {
			blob, err = comm.EncodeTensors(out.State)
		} else {
			echo = codec.Name()
			blob, err = codec.Encode(stateTs, out.State, comm.CodecSeed(uint64(cfg.Seed), rs.Round, cl.ID))
		}
		if err != nil {
			return err
		}
		t = tr.add("comm.client_encode", t, rs.Round, cl.ID)
		ctr.payload.Add(int64(len(rs.State) + len(blob)))
		ctr.up.Add(int64(len(blob)))
		if err := sess.SendUpdate(comm.ClientUpdate{ClientID: cl.ID, Round: rs.Round, State: blob, Codec: echo,
			NumSelected: out.NumSelected, TrainSeconds: out.Cost.Total(), TrainLoss: out.TrainLoss,
			MeanEntropy: out.MeanEntropy}); err != nil {
			return err
		}
		tr.add("comm.client_send", t, rs.Round, cl.ID)
		tr.add("comm.client_round", t0, rs.Round, cl.ID)
	}
}

// runTCP is one loopback-TCP federation: the server loop of cmd/fedserver's
// synchronous path on this goroutine and one client goroutine per processor.
func runTCP(w workload, env runEnv, codecSpec string) (*block, error) {
	warmup, rounds := w.rounds(env.quick)
	settle()
	setupStart := time.Now()
	fed, err := buildTCPFederation(env)
	if err != nil {
		return nil, err
	}
	global, err := models.Build(fed.spec)
	if err != nil {
		return nil, err
	}
	localCfg, err := tcpLocalConfig(env.seed, warmup+rounds)
	if err != nil {
		return nil, err
	}
	l, err := comm.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()

	var ctr tcpCounters
	var wg sync.WaitGroup
	clientErrs := make([]error, len(fed.clients))
	for i, cl := range fed.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if clientErrs[i] = runTCPClient(l.Addr(), cl, fed, localCfg, env.tr, &ctr); clientErrs[i] != nil {
				// Unblock an Accept still waiting for this client's Hello.
				l.Close()
			}
		}()
	}
	sess, err := comm.AcceptClientsCodec(l, len(fed.clients), warmup+rounds, codecSpec)
	if err != nil {
		wg.Wait()
		return nil, errors.Join(err, errors.Join(clientErrs...))
	}
	b, err := serveTCP(w, env, sess, global, fed, codecSpec, &ctr, setupStart)
	err = errors.Join(err, sess.Shutdown("done"))
	wg.Wait()
	if err = errors.Join(err, errors.Join(clientErrs...)); err != nil {
		return nil, err
	}
	if env.tr != nil {
		b.spans = append([]span(nil), env.tr.spans...)
		b.kit = &probeKit{cfg: localCfg, model: global, client: fed.clients[0], test: fed.test,
			domain: fed.domain, codec: codecSpec}
	}
	return b, nil
}

func serveTCP(w workload, env runEnv, sess *comm.ServerSession, global *models.Model, fed tcpFederation,
	codecSpec string, ctr *tcpCounters, setupStart time.Time) (*block, error) {
	warmup, rounds := w.rounds(env.quick)
	tr := env.tr
	engine, err := comm.NewRoundEngine(sess, comm.EngineConfig{})
	if err != nil {
		return nil, err
	}
	var codec comm.Codec
	if codecSpec != comm.CodecIdentity {
		if codec, err = comm.ParseCodec(codecSpec); err != nil {
			return nil, err
		}
	}
	strat := strategy.FedAvg()
	groups := global.TrainableGroupNames()
	stateTs, err := global.GroupStateTensors(groups)
	if err != nil {
		return nil, err
	}
	var stateBlob int64 = 4 // EncodeTensors' count header
	for _, t := range stateTs {
		stateBlob += int64(t.EncodedSize())
	}

	b := &block{SetupS: time.Since(setupStart).Seconds(), LossFinite: true, WireRounds: rounds, counts: map[string]float64{}}
	if codec == nil {
		b.WireWant = int64(rounds*len(fed.clients)) * 2 * stateBlob
	}
	var m allocMeter
	var framesAtStart, payloadAtStart, upAtStart int64
	var dropped int
	for round := 1; round <= warmup+rounds; round++ {
		if round == warmup+1 {
			// Every client has sent its last warm-up update and none has
			// been sent anything since, so the counters are at rest.
			framesAtStart, payloadAtStart, upAtStart = ctr.frames.Load(), ctr.payload.Load(), ctr.up.Load()
			m.start()
		}
		wall, cpu := time.Now(), processCPU()
		t0 := tr.now()
		blob, err := comm.EncodeTensors(stateTs)
		if err != nil {
			return nil, err
		}
		t := tr.add("comm.encode_broadcast", t0, round, -1)
		agg := comm.NewStreamAggregator()
		if codec != nil {
			agg.SetCodec(codec, stateTs)
		}
		var selected int
		out, err := engine.RunRound(comm.RoundStart{Round: round, State: blob, Groups: groups,
			SelectFraction: 1, LocalEpochs: 1}, func(u comm.ClientUpdate) error {
			tf := tr.now()
			err := agg.Add(u)
			tr.add("comm.fold_add", tf, round, -1)
			if err == nil {
				selected += u.NumSelected
				if math.IsNaN(u.TrainLoss) || math.IsInf(u.TrainLoss, 0) {
					b.LossFinite = false
				}
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		t = tr.add("comm.engine_round", t, round, -1)
		fused, err := agg.Finish()
		if err != nil {
			return nil, err
		}
		t = tr.add("comm.fold_finish", t, round, -1)
		if err := strat.ApplyAggregate(stateTs, fused); err != nil {
			return nil, err
		}
		t = tr.add("strategy.apply", t, round, -1)
		acc, err := metrics.Accuracy(global, fed.test)
		if err != nil {
			return nil, err
		}
		tr.add("metrics.eval", t, round, -1)
		tr.add("comm.round", t0, round, -1)
		if round > warmup {
			b.RoundMs = append(b.RoundMs, float64(time.Since(wall))/1e6)
			b.RoundCPUMs = append(b.RoundCPUMs, float64(processCPU()-cpu)/1e6)
			b.Acc = append(b.Acc, acc)
			b.Attempted += len(fed.clients)
			b.Failed += len(fed.clients) - len(out.Reported)
			b.TrainSamples += int64(selected)
			dropped += len(out.Dropped) + len(out.TimedOut)
		}
	}
	b.Mallocs, b.AllocBytes = m.stop()
	b.WireBytes = ctr.frames.Load() - framesAtStart
	updates := float64(b.Attempted - b.Failed)
	b.WirePayload = ctr.payload.Load() - payloadAtStart
	b.counts["comm.bytes_up_per_update"] = float64(ctr.up.Load()-upAtStart) / updates
	b.counts["comm.bytes_down_per_client"] = float64(stateBlob)
	b.counts["comm.updates_dropped"] = float64(dropped)
	b.CRC = stateCRC(global)
	return b, nil
}
