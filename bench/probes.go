package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/seeds"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/tensor"
)

// probeKit is what the layer probes run on after the traced run: the
// workload's own trained model, one of its clients, its test set and its
// local-training configuration.
type probeKit struct {
	cfg    core.Config
	model  *models.Model
	client *core.Client
	test   *data.Dataset
	domain *data.Domain
	codec  string
	runner *core.Runner // nil for the TCP workloads
}

// timeMs returns the smallest wall time of reps calls of f, in ms, after one
// untimed call: a probe is a fixed piece of work, and interference only adds.
func timeMs(reps int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = math.Min(best, float64(time.Since(t0))/1e6)
	}
	return best, nil
}

// runProbes makes direct timed calls into each layer and returns the
// per-layer metrics only a probe can give. outDir hosts the checkpoint
// probe's temporary directory, which is removed again.
func runProbes(k *probeKit, quick bool, outDir string) (map[string]float64, error) {
	reps := 7
	if quick {
		reps = 1
	}
	out := map[string]float64{}
	var firstErr error
	probe := func(name string, scale float64, f func() error) {
		// Start every probe from the same collector state: a cycle left
		// over from the run, or begun by the previous probe's garbage, was
		// measured to triple the first probes' times.
		runtime.GC()
		ms, err := timeMs(reps, f)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bench: probe %s: %w", name, err)
		}
		out[name] = ms * scale
	}

	// core: one local round as the workload configures it, then the paper's
	// trade on the same client and model: EDS(50%)+moderate vs All+full.
	localCfg, err := core.NewLocalConfig(k.cfg)
	if err != nil {
		return nil, err
	}
	localUpdate := func(cfg core.Config) func() error {
		return func() error { _, err := core.LocalUpdate(cfg, k.model, k.client, 1); return err }
	}
	probe("core.local_update_ms", 1, localUpdate(localCfg))
	eds, all := localCfg, localCfg
	eds.Selector, eds.SelectFraction, eds.FinetunePart = selection.Entropy{Temperature: edsTemperature}, 0.5, models.FinetuneModerate
	all.Selector, all.SelectFraction, all.FinetunePart = selection.All{}, 1, models.FinetuneFull
	probe("core.local_update_eds_ms", 1, localUpdate(eds))
	probe("core.local_update_all_ms", 1, localUpdate(all))
	out["core.eds_over_all_ratio"] = out["core.local_update_eds_ms"] / out["core.local_update_all_ms"]

	n := k.client.Data.Len()
	probe("selection.score_us_per_sample", 1e3/float64(n), func() error {
		_, err := selection.SampleEntropies(k.model, k.client.Data, edsTemperature)
		return err
	})

	// models / opt: a private clone under the workload's finetune part.
	m, err := k.model.Clone()
	if err != nil {
		return nil, err
	}
	if err := m.SetFinetunePart(localCfg.FinetunePart); err != nil {
		return nil, err
	}
	evalBatches, err := k.test.Batches(32, nil)
	if err != nil {
		return nil, err
	}
	probe("models.forward_us_per_sample", 1e3/float64(len(evalBatches[0].Y)), func() error {
		m.Forward(evalBatches[0].X, false)
		return nil
	})
	trainBatches, err := k.client.Data.Batches(localCfg.BatchSize, nil)
	if err != nil {
		return nil, err
	}
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: localCfg.LR, Momentum: localCfg.Momentum}, m.TrainableParams())
	if err != nil {
		return nil, err
	}
	var ls nn.LossScratch
	tb := trainBatches[0]
	probe("models.train_step_us_per_sample", 1e3/float64(len(tb.Y)), func() error {
		_, dl, err := nn.SoftmaxCrossEntropy{}.LossInto(&ls, m.Forward(tb.X, true), tb.Y)
		if err != nil {
			return err
		}
		m.Backward(dl)
		sgd.Step()
		return nil
	})
	probe("opt.sgd_step_us", 1e3, func() error { sgd.Step(); return nil })
	probe("models.clone_ms", 1, func() error { _, err := k.model.Clone(); return err })

	a, b, c := tensor.New(256, 256), tensor.New(256, 256), tensor.New(256, 256)
	a.Fill(0.5)
	b.Fill(0.25)
	probe("tensor.matmul256_ms", 1, func() error { return tensor.MatMul(c, a, b) })

	probe("simtime.round_cost_us_per_client", 1e3, func() error {
		_, err := simtime.ClientRoundCost(m, k.client.Device, n, n, localCfg.LocalEpochs, 1)
		return err
	})
	genN := 256
	probe("data.generate_us_per_sample", 1e3/float64(genN), func() error {
		_, err := k.domain.GenerateBalanced(genN, seeds.Source(1))
		return err
	})
	probe("metrics.eval_ms", 1, func() error { _, err := metrics.Accuracy(k.model, k.test); return err })

	// comm: the communicated state of the workload's model through the
	// tensor blob, the workload's codec and one ClientUpdate envelope.
	state, err := m.GroupStateTensors(m.TrainableGroupNames())
	if err != nil {
		return nil, err
	}
	mb := tensorsMB(state)
	perSec := func(name string, f func() error) {
		probe(name, 1, f)
		out[name] = mb / (out[name] / 1e3)
	}
	var blob []byte
	perSec("comm.encode_tensors_mb_per_s", func() (err error) { blob, err = comm.EncodeTensors(state); return err })
	var scratch []*tensor.Tensor
	perSec("comm.decode_tensors_mb_per_s", func() (err error) {
		scratch, err = comm.DecodeTensorsReuse(scratch, blob)
		return err
	})
	codec, err := comm.ParseCodec(k.codec)
	if err != nil {
		return nil, err
	}
	// A trained state one small step from the reference, as a delta codec sees it.
	moved := make([]*tensor.Tensor, len(state))
	for i, t := range state {
		moved[i] = t.Clone()
		moved[i].Scale(1.001)
	}
	var payload []byte
	perSec("comm.codec_encode_mb_per_s", func() (err error) { payload, err = codec.Encode(state, moved, 7); return err })
	var dec []*tensor.Tensor
	perSec("comm.codec_decode_mb_per_s", func() (err error) {
		dec, err = codec.Decode(state, dec, payload)
		if err == nil {
			dec = dec[:cap(dec)]
		}
		return err
	})
	update := comm.ClientUpdate{ClientID: 1, Round: 1, State: payload, NumSelected: n, TrainSeconds: 0.5, TrainLoss: 1.25}
	var env comm.Envelope
	probe("comm.envelope_encode_ms", 1, func() (err error) { env, err = comm.EncodeBody(comm.MsgClientUpdate, update); return err })
	probe("comm.envelope_decode_ms", 1, func() error { var u comm.ClientUpdate; return comm.DecodeBody(env, &u) })

	// ckpt: one checkpoint of the finished run (Runner workloads only).
	if k.runner != nil {
		dir, err := os.MkdirTemp(outDir, "ckpt-probe-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		var path string
		probe("ckpt.save_ms", 1, func() (err error) { path, err = k.runner.SaveCheckpoint(dir); return err })
		if st, err := os.Stat(path); err == nil {
			out["ckpt.bytes"] = float64(st.Size())
		}
	}
	out["bench.calib_ms"] = calibMs()
	return out, firstErr
}

// tensorsMB is the dense float32 size of ts in MB (1e6 bytes).
func tensorsMB(ts []*tensor.Tensor) float64 {
	var n int
	for _, t := range ts {
		n += 4 * t.Len()
	}
	return float64(n) / 1e6
}
