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
// same weights — the two updates of a round sum the same in either order —
// and the clients train the recipe the server's RoundStart carries. Each row
// is one core.Config, handed as it is to core.NewRunner and, as Config.Run,
// to Serve. The first four rows' CRCs were recorded at the commit before the
// simulator folded through Add, so Serve did not move either; the paper-arm
// rows' CRCs come from the simulator side.
//
// Two counts differ on purpose. The Runner charges a tier's compute at the
// client's own rate, so its clients get the FLOPS scaling the served client
// applies (core.TierClient). And the server counts the broadcast blob's
// 4-byte tensor count in every downlink, which the simulator's state size
// leaves out.
func TestSimulatorMatchesLoopbackFederation(t *testing.T) {
	const numClients, rounds = 2, 3
	w, err := experiments.NewWorld(1, numClients)
	if err != nil {
		t.Fatal(err)
	}
	fedprox, err := strategy.FedProx(0.5)
	if err != nil {
		t.Fatal(err)
	}
	eds, moderate := selection.Entropy{Temperature: 0.1}, models.FinetuneModerate
	for _, tt := range []struct {
		name, codec, tiers string
		part               models.FinetunePart
		sel                selection.Selector
		pds                float64
		strat              strategy.Strategy
		crc                uint32
	}{
		{"identity", "identity", "", moderate, eds, 0.5, strategy.FedAvg(), 0x78d104b6},
		{"tiers", "identity", "low:1,full:1", moderate, eds, 0.5, strategy.FedAvg(), 0xce686593},
		{"int8", "int8", "", moderate, eds, 0.5, strategy.FedAvg(), 0x0289bd19},
		{"tiers/topk", "topk:0.1", "low:1,full:1", moderate, eds, 0.5, strategy.FedAvg(), 0x901ea32f},
		{"fedavg", "identity", "", models.FinetuneFull, selection.All{}, 1, strategy.FedAvg(), 0x7bff5897},
		{"fedft-rds", "identity", "", moderate, selection.Random{}, 0.5, strategy.FedAvg(), 0xbe35ad4a},
		{"fedprox", "identity", "", moderate, eds, 0.5, fedprox, 0x1598ee8d},
		{"eds/rho=0.5", "identity", "", moderate, selection.Entropy{Temperature: 0.5}, 0.5, strategy.FedAvg(), 0xee333d45},
		{"nil strategy", "identity", "", moderate, eds, 0.5, nil, 0x78d104b6},
	} {
		t.Run(tt.name, func(t *testing.T) {
			run := core.Config{Rounds: rounds, LocalEpochs: 1, LR: 0.05, Momentum: 0.5, FinetunePart: tt.part,
				Selector: tt.sel, SelectFraction: tt.pds, Seed: 1, Strategy: tt.strat, EvalEvery: 1,
				Parallelism: 1, Codec: tt.codec}
			if tt.tiers != "" {
				if run.TierDist, err = device.ParseDistribution(tt.tiers); err != nil {
					t.Fatal(err)
				}
			}

			cfg := Config{Run: run, NumClients: numClients, Quorum: 1}
			served, servedModel, err := servePipes(t, w, cfg, func(conn comm.Conn, id int) error {
				model, err := w.Global.Clone()
				if err != nil {
					return err
				}
				c, err := Join(conn, ClientConfig{ID: id, NumClients: numClients, Seed: 1}, model, w.Clients[id])
				if err != nil {
					return err
				}
				return c.Run(nil, nil)
			})
			if err != nil {
				t.Fatalf("federation: %v", err)
			}

			clients := w.Clients
			if run.TierDist != nil {
				clients = make([]*core.Client, numClients)
				for i, tier := range run.TierDist.Assign(numClients, run.Seed) {
					if clients[i], err = core.TierClient(w.Clients[i], tier); err != nil {
						t.Fatal(err)
					}
				}
			}
			simModel, err := w.Global.Clone()
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.NewRunner(run, simModel, clients, w.Test)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := r.Run()
			if err != nil {
				t.Fatalf("simulator: %v", err)
			}

			if got, sim := stateCRC(servedModel), stateCRC(simModel); got != tt.crc || sim != tt.crc {
				t.Errorf("final state CRC: served %08x, simulated %08x, want %08x", got, sim, tt.crc)
			}
			if len(served.Records) != rounds || len(sim.Records) != rounds {
				t.Fatalf("%d served and %d simulated records, want %d", len(served.Records), len(sim.Records), rounds)
			}
			for i, s := range served.Records {
				m := sim.Records[i]
				if s.TestAccuracy != m.TestAccuracy || s.MeanTrainLoss != m.MeanTrainLoss ||
					s.Participants != m.Participants || s.CohortSize != m.CohortSize ||
					s.CumUplinkBytes != m.CumUplinkBytes || s.SchedPolicy != m.SchedPolicy {
					t.Errorf("round %d: served %+v, simulated %+v", s.Round, s, m)
				}
				if math.Abs(s.CumTrainSeconds-m.CumTrainSeconds) > 1e-12*s.CumTrainSeconds {
					t.Errorf("round %d: %v served train seconds, %v simulated", s.Round, s.CumTrainSeconds, m.CumTrainSeconds)
				}
			}
			// Both runtimes close their history through core.Progress.
			if served.BestAccuracy != sim.BestAccuracy || served.FinalAccuracy != sim.FinalAccuracy ||
				served.TotalUplinkBytes != sim.TotalUplinkBytes {
				t.Errorf("closing values: served best %v final %v uplink %d, simulated best %v final %v uplink %d",
					served.BestAccuracy, served.FinalAccuracy, served.TotalUplinkBytes,
					sim.BestAccuracy, sim.FinalAccuracy, sim.TotalUplinkBytes)
			}
			if math.Abs(served.TotalTrainSeconds-sim.TotalTrainSeconds) > 1e-12*served.TotalTrainSeconds {
				t.Errorf("total train seconds: served %v, simulated %v", served.TotalTrainSeconds, sim.TotalTrainSeconds)
			}
			if diff, want := served.TotalDownlinkBytes-sim.TotalDownlinkBytes, int64(4*numClients*rounds); diff != want {
				t.Errorf("downlink: served %d bytes, simulated %d; want the %d count-header bytes apart",
					served.TotalDownlinkBytes, sim.TotalDownlinkBytes, want)
			}
		})
	}
}
