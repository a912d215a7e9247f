package federation

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/device"
	"fedfteds/internal/experiments"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

// stateCRC is the CRC-32C of every state tensor's float32 bits, little
// endian, in StateTensors order.
func stateCRC(m *models.Model) uint32 {
	var buf []byte
	for _, t := range m.StateTensors() {
		for _, v := range t.Data() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli))
}

// TestSimulatorMatchesLoopbackFederation is the twin gate: a simulated
// federation and the same federation served over pipes to honest clients end
// in the same bits, because both fold through StreamAggregator.Add with the
// same weights — the two updates of a round sum the same in either order. The
// server CRCs were recorded at the commit before the simulator folded
// through Add, so Serve did not move either.
//
// Two counts differ on purpose. The simulator charges a tier's compute at the
// client's own rate, so its clients get the FLOPS scaling Join applies. And the
// server counts the broadcast blob's 4-byte tensor count in every downlink,
// which the simulator's state size leaves out.
func TestSimulatorMatchesLoopbackFederation(t *testing.T) {
	const numClients, rounds = 2, 3
	w, err := experiments.NewWorld(1, numClients)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name, codec, tiers string
		crc                uint32
	}{
		{"identity", "identity", "", 0x78d104b6},
		{"tiers", "identity", "low:1,full:1", 0xce686593},
		{"int8", "int8", "", 0x0289bd19},
		{"tiers/topk", "topk:0.1", "low:1,full:1", 0x901ea32f},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var dist *device.Distribution
			if tt.tiers != "" {
				if dist, err = device.ParseDistribution(tt.tiers); err != nil {
					t.Fatal(err)
				}
			}
			codec, err := comm.ParseCodec(tt.codec)
			if err != nil {
				t.Fatal(err)
			}

			cfg := Config{NumClients: numClients, Rounds: rounds, Fraction: 0.5, Epochs: 1, Seed: 1,
				Quorum: 1, Strat: strategy.FedAvg(), TierDist: dist, MaxStaleness: -1}
			if codec.Name() != comm.CodecIdentity {
				cfg.Codec, cfg.CodecName = codec, codec.Name()
			}
			served, servedModel, err := servePipes(t, w, cfg, func(conn comm.Conn, id int) error {
				model, err := w.Global.Clone()
				if err != nil {
					return err
				}
				c, err := Join(conn, ClientConfig{ID: id, NumClients: numClients, Seed: 1, Temperature: 0.1,
					TierDist: dist}, model, w.Clients[id])
				if err != nil {
					return err
				}
				return c.Run(nil, nil)
			})
			if err != nil {
				t.Fatalf("federation: %v", err)
			}

			clients := make([]*core.Client, numClients)
			for i, cl := range w.Clients {
				scaled := *cl
				if dist != nil {
					prof, err := device.Lookup(dist.Assign(numClients, 1)[i])
					if err != nil {
						t.Fatal(err)
					}
					scaled.Device.FLOPSRate *= prof.FLOPSFactor
				}
				clients[i] = &scaled
			}
			simModel, err := w.Global.Clone()
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.NewRunner(core.Config{Rounds: rounds, LocalEpochs: 1, LR: 0.05, Momentum: 0.5,
				FinetunePart: models.FinetuneModerate, Selector: selection.Entropy{Temperature: 0.1},
				SelectFraction: 0.5, Seed: 1, Strategy: strategy.FedAvg(), TierDist: dist, EvalEvery: 1,
				Parallelism: 1, Codec: tt.codec}, simModel, clients, w.Test)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := r.Run()
			if err != nil {
				t.Fatalf("simulator: %v", err)
			}

			if got, sim := stateCRC(servedModel), stateCRC(simModel); got != tt.crc || sim != tt.crc {
				t.Errorf("final state CRC: served %08x, simulated %08x, parent server %08x", got, sim, tt.crc)
			}
			if len(served.Records) != rounds || len(sim.Records) != rounds {
				t.Fatalf("%d served and %d simulated records, want %d", len(served.Records), len(sim.Records), rounds)
			}
			for i, s := range served.Records {
				m := sim.Records[i]
				if s.TestAccuracy != m.TestAccuracy || s.MeanTrainLoss != m.MeanTrainLoss ||
					s.Participants != m.Participants || s.CohortSize != m.CohortSize ||
					s.CumUplinkBytes != m.CumUplinkBytes {
					t.Errorf("round %d: served %+v, simulated %+v", s.Round, s, m)
				}
				if math.Abs(s.CumTrainSeconds-m.CumTrainSeconds) > 1e-12*s.CumTrainSeconds {
					t.Errorf("round %d: %v served train seconds, %v simulated", s.Round, s.CumTrainSeconds, m.CumTrainSeconds)
				}
			}
			if diff, want := served.TotalDownlinkBytes-sim.TotalDownlinkBytes, int64(4*numClients*rounds); diff != want {
				t.Errorf("downlink: served %d bytes, simulated %d; want the %d count-header bytes apart",
					served.TotalDownlinkBytes, sim.TotalDownlinkBytes, want)
			}
		})
	}
}
