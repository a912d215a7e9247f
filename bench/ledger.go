package main

import (
	"fmt"
	"math"
	"slices"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload in one mode: the untraced run carries
// the end-to-end metrics, the traced run the per-layer ones.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Quick    bool   `json:"quick,omitempty"`
	// Blocks is how many whole federations the run repeated; Rounds how many
	// measured rounds (the sample count of the round-time percentiles).
	Blocks int `json:"blocks"`
	Rounds int `json:"rounds"`
	// TailPercentile is the percentile core.round_ms_tail reports.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	// RoundsToTarget is the measured round that first reached Target.
	RoundsToTarget int     `json:"rounds_to_target"`
	Target         float64 `json:"target_accuracy"`
	// StateCRC is the CRC-32C of the final global state, identical in every
	// block; two reports with equal StateCRC trained bit-identical models.
	StateCRC  string            `json:"state_crc32c"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check applies the correctness gate to every block of a run.
func check(w workload, quick bool, blocks []*block) (problems []string) {
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	first := blocks[0]
	for i, b := range blocks {
		if b.Failed != 0 {
			bad("block %d: %d of %d client updates not folded", i, b.Failed, b.Attempted)
		}
		if !b.LossFinite {
			bad("block %d: non-finite train loss", i)
		}
		if b.WireWant > 0 && b.WirePayload != b.WireWant {
			bad("block %d: %d payload bytes on the wire, closed form says %d", i, b.WirePayload, b.WireWant)
		}
		if b.CRC != first.CRC {
			bad("block %d: final state CRC %08x differs from block 0's %08x", i, b.CRC, first.CRC)
		}
		if b.WireBytes != first.WireBytes || b.TrainSamples != first.TrainSamples {
			bad("block %d: wire bytes or trained samples differ from block 0's", i)
		}
		// The quick mode's two rounds train nothing worth a floor.
		if acc := b.Acc[len(b.Acc)-1]; !quick && !(acc >= w.Floor) {
			bad("block %d: final accuracy %.4f below the floor %.4f", i, acc, w.Floor)
		}
	}
	return problems
}

// toTarget returns the 1-based measured round whose accuracy first reaches
// the workload's target — the same in every block — and the median over the
// blocks of the wall time up to that round's end; 0, 0 when none does.
func toTarget(w workload, blocks []*block) (round int, seconds float64) {
	var secs []float64
	for _, b := range blocks {
		var ms float64
		for i, acc := range b.Acc {
			ms += b.RoundMs[i]
			if acc >= w.Target {
				round, secs = i+1, append(secs, ms/1e3)
				break
			}
		}
	}
	return round, median(secs)
}

// fastestRounds returns, for each measured round position, the smallest
// value any block observed there. Every block of a run does the same work
// round for round, and whatever else runs on the box can only add to a
// round's time, so the composite is the run as it goes when nothing
// interferes.
func fastestRounds(blocks []*block, of func(*block) []float64) []float64 {
	out := append([]float64(nil), of(blocks[0])...)
	for _, b := range blocks[1:] {
		for i, v := range of(b) {
			out[i] = math.Min(out[i], v)
		}
	}
	return out
}

// endToEnd reduces the untraced blocks of a run to the end-to-end metrics:
// timings from the composite of fastest rounds, set-up time, memory and the
// counts as medians over the blocks.
func endToEnd(w workload, blocks []*block, res *result) {
	var setup, allocs, allocMB, wire, rss []float64
	for _, b := range blocks {
		r := float64(len(b.RoundMs))
		setup = append(setup, b.SetupS)
		allocs = append(allocs, float64(b.Mallocs)/r)
		allocMB = append(allocMB, float64(b.AllocBytes)/1e6/r)
		wire = append(wire, float64(b.WireBytes)/1e6/float64(b.WireRounds))
		rss = append(rss, b.PeakRSSMiB)
		res.Rounds += len(b.RoundMs)
	}
	res.RoundsToTarget, _ = toTarget(w, blocks)
	wall := fastestRounds(blocks, func(b *block) []float64 { return b.RoundMs })
	cpu := fastestRounds(blocks, func(b *block) []float64 { return b.RoundCPUMs })
	res.Metrics = map[string]metric{
		"setup_s":             {median(setup), "s"},
		"run_s":               {sum(wall) / 1e3, "s"},
		"round_ms_p50":        {median(wall), "ms"},
		"train_samples_per_s": {float64(blocks[0].TrainSamples) / (sum(wall) / 1e3), "1/s"},
		"cpu_ms_per_round":    {mean(cpu), "ms"},
		"allocs_per_round":    {median(allocs), "count"},
		"alloc_mb_per_round":  {median(allocMB), "MB"},
		"peak_rss_mib":        {median(rss), "MiB"},
		"wire_mb_per_round":   {median(wire), "MB"},
	}
}

// layerUnits names every per-layer metric and its unit; a workload that has
// no such layer reports 0.
var layerUnits = map[string]string{
	"core.round_ms_p50": "ms", "core.round_ms_tail": "ms", "core.train_phase_ms": "ms",
	"core.fold_phase_ms": "ms", "core.between_rounds_ms": "ms", "core.run_prologue_ms": "ms",
	"core.local_update_ms": "ms", "core.local_update_eds_ms": "ms", "core.local_update_all_ms": "ms",
	"core.eds_over_all_ratio": "ratio", "core.layer_residual_share": "ratio", "core.share": "ratio",
	"selection.select_ms_per_client": "ms", "selection.score_us_per_sample": "us",
	"selection.calls_per_round": "count", "selection.score_share": "ratio", "selection.share": "ratio",
	"models.forward_us_per_sample": "us", "models.train_step_us_per_sample": "us", "models.clone_ms": "ms",
	"models.share": "ratio", "tensor.matmul256_ms": "ms", "opt.sgd_step_us": "us",
	"sched.schedule_ms_per_round": "ms", "sched.candidates": "count", "sched.share": "ratio",
	"simtime.round_cost_us_per_client": "us",
	"fleet.new_s":                      "s", "fleet.desc_bytes_per_client": "B", "fleet.acquire_ms_per_round": "ms",
	"fleet.release_ms_per_round": "ms", "fleet.materializations": "count", "fleet.pool_hit_ratio": "ratio",
	"fleet.peak_resident": "count", "fleet.share": "ratio", "data.generate_us_per_sample": "us",
	"comm.encode_tensors_mb_per_s": "MB/s", "comm.decode_tensors_mb_per_s": "MB/s",
	"comm.codec_encode_mb_per_s": "MB/s", "comm.codec_decode_mb_per_s": "MB/s",
	"comm.envelope_encode_ms": "ms", "comm.envelope_decode_ms": "ms", "comm.engine_round_ms": "ms",
	"comm.engine_wait_ms": "ms", "comm.fold_add_ms_per_update": "ms", "comm.fold_finish_ms": "ms",
	"comm.client_next_round_ms": "ms", "comm.client_send_ms": "ms", "comm.bytes_up_per_update": "B",
	"comm.bytes_down_per_client": "B", "comm.updates_dropped": "count", "comm.round_ms_tail": "ms",
	"comm.share": "ratio", "strategy.weigh_us": "us", "strategy.apply_ms": "ms", "strategy.share": "ratio",
	"metrics.eval_ms": "ms", "metrics.share": "ratio", "ckpt.save_ms": "ms", "ckpt.bytes": "B",
	"bench.trace_overhead_share": "ratio", "bench.calib_ms": "ms",
	// Demoted from the end-to-end list: they depend on the seed far more
	// than on the program (see README.md), so they carry no bound.
	"time_to_target_s": "s", "rounds_to_target": "count", "final_accuracy": "ratio",
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// runnerLayers reads the per-layer numbers of one traced core.Runner block
// off its spans. probes supplies the two costs no seam brackets: a training
// step and an evaluation. Shares are of the measured rounds' wall time; work
// the worker pool runs in parallel is divided by the worker count.
func runnerLayers(b *block, ss spanSet, probes map[string]float64, workers int) map[string]float64 {
	r := float64(len(b.RoundMs))
	wall := ss.total("core.round")
	sel := ss.durs("selection.select")
	strat := ss.total("strategy.weigh") + ss.total("strategy.apply")
	out := map[string]float64{
		"core.train_phase_ms":            median(ss.durs("core.train_phase")),
		"core.fold_phase_ms":             median(ss.durs("core.fold_phase")),
		"core.between_rounds_ms":         median(ss.durs("core.between_rounds")),
		"selection.select_ms_per_client": mean(sel),
		"selection.calls_per_round":      float64(len(sel)) / r,
		"selection.score_share":          sum(sel) / float64(workers) / ss.total("core.train_phase"),
		"sched.schedule_ms_per_round":    ss.total("sched.schedule") / r,
		"fleet.acquire_ms_per_round":     ss.total("fleet.acquire") / r,
		"fleet.release_ms_per_round":     ss.total("fleet.release") / r,
		"strategy.weigh_us":              1e3 * mean(ss.durs("strategy.weigh")),
		"strategy.apply_ms":              mean(ss.durs("strategy.apply")),
	}
	for _, s := range ss.spans {
		if s.Name == "core.run_prologue" {
			out["core.run_prologue_ms"] = s.ms()
		}
	}
	layers := map[string]float64{
		"selection": sum(sel) / float64(workers),
		"models":    probes["models.train_step_us_per_sample"] / 1e3 * float64(b.TrainSamples) / float64(workers),
		"sched":     ss.total("sched.schedule"),
		"fleet":     ss.total("fleet.acquire") + ss.total("fleet.release"),
		"strategy":  strat,
		"metrics":   probes["metrics.eval_ms"] * r,
	}
	// What core itself runs between the seams: the weighted-average loops of
	// the fold phase, and the record keeping and candidate build between
	// rounds once the evaluation is taken out.
	layers["core"] = ss.total("core.fold_phase") - strat + ss.total("core.between_rounds") - layers["metrics"] +
		ss.total("simtime.complete")
	covered := 0.0
	for name, ms := range layers {
		out[name+".share"] = ms / wall
		covered += ms
	}
	out["core.layer_residual_share"] = (wall - covered) / wall
	return out
}

// tcpLayers reads the per-layer numbers of one traced TCP block. Shares
// follow the round's blocking steps: the server's own spans tile the round,
// and the time it spends inside RunRound is split along the client that
// reported last — its local training is core and models, everything else on
// that path (envelopes, tensor blobs, socket, fold) is comm.
func tcpLayers(b *block, ss spanSet, probes map[string]float64) map[string]float64 {
	r := float64(len(b.RoundMs))
	wall := ss.total("comm.round")
	out := map[string]float64{
		"comm.engine_round_ms":        median(ss.durs("comm.engine_round")),
		"comm.engine_wait_ms":         ss.selfTotal("comm.engine_round") / r,
		"comm.fold_add_ms_per_update": mean(ss.durs("comm.fold_add")),
		"comm.fold_finish_ms":         mean(ss.durs("comm.fold_finish")),
		"comm.client_next_round_ms":   mean(ss.durs("comm.client_next_round")),
		"comm.client_send_ms":         mean(ss.durs("comm.client_send")),
		"strategy.apply_ms":           mean(ss.durs("strategy.apply")),
		"core.layer_residual_share":   ss.selfTotal("comm.round") / wall,
		"strategy.share":              ss.total("strategy.apply") / wall,
		"metrics.share":               ss.total("metrics.eval") / wall,
	}
	out["comm.round_ms_tail"], _ = tail(ss.durs("comm.round"))

	// Per round, the local work of the client whose send ended last.
	lastSend := map[int]span{}
	local := map[[2]int]float64{} // (round, lane) -> install + local_update ms
	for _, s := range ss.spans {
		if s.Round <= ss.warmup {
			continue
		}
		switch s.Name {
		case "comm.client_send":
			if s.End > lastSend[s.Round].End {
				lastSend[s.Round] = s
			}
		case "core.install", "core.local_update":
			local[[2]int{s.Round, s.Lane}] += s.ms()
		}
	}
	var training float64
	for round, s := range lastSend {
		training += local[[2]int{round, s.Lane}]
	}
	perUpdate := float64(b.TrainSamples) / float64(b.Attempted)
	models := r * math.Min(training/r, probes["models.clone_ms"]+probes["models.train_step_us_per_sample"]/1e3*perUpdate)
	out["models.share"] = models / wall
	out["core.share"] = (training - models) / wall
	out["comm.share"] = 1 - (training+ss.total("strategy.apply")+ss.total("metrics.eval")+ss.selfTotal("comm.round"))/wall
	return out
}

// perLayer reduces the traced blocks of a run, the probes and the untraced
// blocks run beside them to the per-layer metrics.
func perLayer(w workload, env runEnv, traced, untraced []*block, probes map[string]float64, res *result) {
	warmup, _ := w.rounds(env.quick)
	perBlock := map[string][]float64{}
	var rounds []float64
	for _, b := range traced {
		ss := newSpanSet(b.spans, warmup)
		var m map[string]float64
		if w.TCP {
			m = tcpLayers(b, ss, probes)
		} else {
			m = runnerLayers(b, ss, probes, min(env.procs, b.Attempted/len(b.RoundMs)))
		}
		for k, v := range b.counts {
			m[k] = v
		}
		for k, v := range m {
			perBlock[k] = append(perBlock[k], v)
		}
		rounds = append(rounds, b.RoundMs...)
	}
	values := map[string]float64{}
	for k, v := range probes {
		values[k] = v
	}
	for k, vs := range perBlock {
		values[k] = median(vs)
	}
	values["core.round_ms_p50"] = median(rounds)
	values["core.round_ms_tail"], res.TailPercentile = tail(rounds)
	wallOf := func(b *block) []float64 { return b.RoundMs }
	values["bench.trace_overhead_share"] = sum(fastestRounds(traced, wallOf))/sum(fastestRounds(untraced, wallOf)) - 1
	res.RoundsToTarget, values["time_to_target_s"] = toTarget(w, slices.Concat(traced, untraced))
	values["rounds_to_target"] = float64(res.RoundsToTarget)
	values["final_accuracy"] = traced[0].Acc[len(traced[0].Acc)-1]

	res.Rounds = len(rounds)
	res.Metrics = map[string]metric{}
	for name, unit := range layerUnits {
		v := values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{v, unit}
	}
}
