package experiments

import (
	"fmt"
	"strings"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/device"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// The comparison experiments beyond the paper's own tables — cohort
// schedulers, server strategies, device tiers, uplink codecs, buffered-async
// aggregation — are one program: FedFT-EDS(50%, moderate) locals on one
// federation, one core.Config axis varied per row, every row under the same
// clients, model initialization and seed so the comparison isolates the axis
// and not the run randomness. An Axis describes what varies and which
// columns its table prints; RunSweep is the program.

// baseConfig is the FedFT-EDS(50%, moderate) run configuration every
// comparison starts from; callers overwrite the fields their experiment
// varies.
func (e *Env) baseConfig(seed int64) core.Config {
	return core.Config{
		Rounds:         e.Dims.Rounds,
		LocalEpochs:    e.Dims.LocalEpochs,
		LR:             paperLR,
		Momentum:       paperMomentum,
		FinetunePart:   models.FinetuneModerate,
		Selector:       selection.Entropy{Temperature: paperTemperature},
		SelectFraction: 0.5,
		Seed:           seed,
	}
}

// SweepOptions narrows and sizes a sweep; the zero value runs every axis's
// standard lineup at scale defaults (with a staleness cap of zero — pass a
// negative MaxStaleness to keep every update).
type SweepOptions struct {
	// Only narrows an axis, keyed by its ID, to one spec; axes without an
	// entry run their standard lineup.
	Only map[string]string
	// Cohort is the sched axis's cohort size K; 0 picks about a third of
	// the pool.
	Cohort int
	// Buffer is the async axis's aggregation trigger M; 0 picks about a
	// third of the pool.
	Buffer int
	// MaxStaleness is the async axis's discard cap; negative keeps every
	// update.
	MaxStaleness int
}

// SweepRow is one configuration's outcome.
type SweepRow struct {
	// Label is the spec the row ran under, in the axis's canonical form
	// ("sync" for the async axis's synchronous baseline).
	Label string
	// Size is the cohort size K (sched axis) or aggregation buffer M (async
	// axis, 0 on its synchronous baseline) the row ran with.
	Size int
	// Mix renders the realized tier assignment, e.g. "low×2 mid×1 full×1"
	// (tiers axis).
	Mix string
	// Hist is the row's full run history. TotalUplinkBytes counts real
	// encoded payload sizes, so rows are directly comparable.
	Hist core.History
}

// SweepResult is one axis's rows, in lineup order, with its rendering.
type SweepResult struct {
	// Rows holds one entry per configuration.
	Rows []SweepRow
	// NumClients is the federation size.
	NumClients int

	axis  *Axis
	title string
}

// variant is one parsed spec of an axis: how its row is labelled and what it
// changes about the baseline run.
type variant struct {
	label string
	// run is the spec's part of the run name, which keys the checkpoint
	// artifact store; empty means the label says enough.
	run  string
	size int
	mix  string
	// apply edits the row's configuration and (for tiers) its freshly built
	// federation; nil changes nothing.
	apply func(*core.Config, *Federation) error
	// async overlaps the row's rounds (core.Runner.RunAsync); runFL keeps
	// such rows outside the checkpoint policy.
	async *core.AsyncConfig
}

// Axis is one comparison experiment: the core.Config axis it varies, its
// standard lineup and its table.
type Axis struct {
	// ID is the experiment id (fedsim -exp).
	ID string
	// Flag and Usage describe the fedsim flag that narrows the sweep to one
	// spec ("all" runs Lineup).
	Flag, Usage string
	// Lineup is the standard set of specs.
	Lineup []string

	// run prefixes the rows' run names.
	run string
	// largePool selects the many-client (straggler) scenario's pool size.
	largePool bool
	// salt seeds the federation; seedTag derives the shared run seed.
	salt    int64
	seedTag uint64
	// first is a row that runs ahead of the lineup, however narrowed.
	first *variant
	// parse turns one spec into its variant for an n-client pool.
	parse func(spec string, n int, seed int64, opts SweepOptions) (variant, error)
	// title is the table's first line, a format over the pool size;
	// titleNote, when set, appends what the options contribute to it.
	title     string
	titleNote func(SweepOptions) string
	// baseline labels the row the relative columns compare against.
	baseline string
	columns  []column
}

// Validate reports whether the axis accepts spec, without running anything.
func (a *Axis) Validate(spec string) error {
	_, err := a.parse(spec, 1, 0, SweepOptions{})
	return err
}

// thirdOfPool resolves a cohort or buffer size against an n-client pool:
// v <= 0 picks about a third, and the result is kept within [2, n].
func thirdOfPool(v, n int) int {
	if v <= 0 {
		v = n / 3
	}
	return min(max(v, 2), n)
}

// Axes lists the comparison experiments in the order fedsim -exp all runs
// them. The lineups cover, in turn: every shipped scheduling policy plus
// the churn wrapper; every flag-constructible strategy at its defaults
// (strategy.Names, so the sweep stays in lockstep with Parse); the
// homogeneous tier federations from full capability down, then a
// heterogeneous mix (full:1 is the untiered run in disguise: its mask covers
// every group); after a synchronous baseline, no staleness discount, the
// FedBuff inverse square root and a harsher linear decay; and the identity
// codec, the two quantizers and topk at 5% density.
var Axes = []*Axis{
	{
		ID: "sched", Flag: "sched",
		Usage:  "sched experiment: one policy (uniform, size, entropy, powerd, avail:<inner>, cluster:<inner>) or all; also the fleetday cohort policy",
		Lineup: []string{"uniform", "size", "entropy", "powerd", "avail:uniform"},
		run:    "sched", largePool: true, salt: 4242, seedTag: sched.StreamTag,
		parse: func(spec string, n int, _ int64, opts SweepOptions) (variant, error) {
			policy, err := sched.Parse(spec)
			if err != nil {
				return variant{}, err
			}
			k := thirdOfPool(opts.Cohort, n)
			return variant{label: spec, run: fmt.Sprintf("%s-k%d", spec, k), size: k,
				apply: func(cfg *core.Config, _ *Federation) error {
					cfg.Scheduler, cfg.CohortSize = policy, k
					return nil
				}}, nil
		},
		title: "Scheduler comparison: cohort K of %d clients, FedFT-EDS locals",
		columns: []column{colLabel("policy", -14),
			{"K", 3, func(r, _ *SweepRow) string { return fmt.Sprint(r.Size) }},
			colBest, colFinal, colSeconds("client-seconds", 14),
			{"participants", 13, func(r, _ *SweepRow) string {
				var sum float64
				for _, rec := range r.Hist.Records {
					sum += float64(rec.Participants)
				}
				return fmt.Sprintf("%.1f", sum/float64(len(r.Hist.Records)))
			}}},
	},
	{
		ID: "strategies", Flag: "strategy",
		Usage:  "strategies experiment: one strategy spec (fedavg, fedprox, fedavgm, fedadam, fedyogi, with optional parameters) or all",
		Lineup: strategy.Names(),
		run:    "strategy", salt: 6464, seedTag: 0x57A7,
		parse: func(spec string, _ int, _ int64, _ SweepOptions) (variant, error) {
			// Parsed afresh per row, so a stateful server optimizer never
			// leaks across rows.
			strat, err := strategy.Parse(spec)
			if err != nil {
				return variant{}, err
			}
			return variant{label: spec, apply: func(cfg *core.Config, _ *Federation) error {
				cfg.Strategy = strat
				return nil
			}}, nil
		},
		title: "Strategy comparison: %d clients, FedFT-EDS locals, server-side optimizers",
		columns: []column{colLabel("strategy", -12), colBest, colFinal,
			colSeconds("client-seconds", 14), colEfficiency("eff (%/s)", 14)},
	},
	{
		ID: "tiers", Flag: "tier-dist",
		Usage:  "tiers experiment: one tier distribution spec (\"tier:weight,...\" over " + strings.Join(device.TierNames(), "/") + ") or all",
		Lineup: []string{"full:1", "high:1", "mid:1", "low:1", "low:1,mid:2,full:1"},
		run:    "tiers", salt: 7272, seedTag: 0x71E5,
		parse: func(spec string, n int, seed int64, _ SweepOptions) (variant, error) {
			dist, err := device.ParseDistribution(spec)
			if err != nil {
				return variant{}, err
			}
			// The Runner derives this same deterministic assignment; scaling
			// each client's simulated compute rate by its tier's factor makes
			// low tiers slow as well as partially trained, the heterogeneity
			// per-layer aggregation is for.
			assign := dist.Assign(n, seed)
			return variant{label: dist.String(), mix: renderMix(assign),
				apply: func(cfg *core.Config, fed *Federation) error {
					cfg.TierDist = dist
					for i, cl := range fed.Clients {
						prof, err := device.Lookup(assign[i])
						if err != nil {
							return err
						}
						cl.Device.FLOPSRate *= prof.FLOPSFactor
					}
					return nil
				}}, nil
		},
		title:    "Tier sweep: %d clients, FedFT-EDS locals, per-layer aggregation",
		baseline: "full:1",
		columns: []column{colLabel("distribution", -20),
			{"mix", -22, func(r, _ *SweepRow) string { return r.Mix }},
			colBest, colFinal, colSeconds("client-s", 11), colUplinkKB, colSaved},
	},
	{
		ID: "async", Flag: "staleness",
		Usage:  "async experiment: one staleness weigher (" + strings.Join(strategy.StalenessNames(), ", ") + ", with optional parameters) or all",
		Lineup: []string{"identity", "invsqrt", "poly:alpha=1"},
		run:    "async", largePool: true, salt: 6464, seedTag: 0xA21C,
		first: &variant{label: "sync"},
		parse: func(spec string, n int, _ int64, opts SweepOptions) (variant, error) {
			weigher, err := strategy.ParseStaleness(spec)
			if err != nil {
				return variant{}, err
			}
			m := thirdOfPool(opts.Buffer, n)
			return variant{label: weigher.Name(), size: m,
				async: &core.AsyncConfig{Buffer: m, MaxStaleness: opts.MaxStaleness, Weigher: weigher}}, nil
		},
		title: "Buffered-async comparison: %d clients",
		titleNote: func(opts SweepOptions) string {
			if opts.MaxStaleness < 0 {
				return ", staleness cap unlimited"
			}
			return fmt.Sprintf(", staleness cap %d", opts.MaxStaleness)
		},
		columns: []column{colLabel("mode", -14),
			{"buffer", 6, func(r, _ *SweepRow) string {
				if r.Size == 0 {
					return "-"
				}
				return fmt.Sprint(r.Size)
			}},
			colBest, colFinal, colSeconds("client-seconds", 14), colEfficiency("efficiency", 11),
			// An async record's cohort is the updates that arrived for the
			// aggregation, its participants the ones within the staleness cap.
			{"discarded", 9, func(r, _ *SweepRow) string {
				discarded := 0
				if r.Size > 0 {
					for _, rec := range r.Hist.Records {
						discarded += rec.CohortSize - rec.Participants
					}
				}
				return fmt.Sprint(discarded)
			}}},
	},
	{
		ID: "codecs", Flag: "codec",
		Usage:  "codecs experiment: one uplink codec spec (" + strings.Join(comm.CodecNames(), ", ") + ") or all",
		Lineup: []string{"identity", "float16", "int8", "topk:0.05"},
		run:    "codec", salt: 7272, seedTag: 0xC0DEC,
		parse: func(spec string, _ int, _ int64, _ SweepOptions) (variant, error) {
			codec, err := comm.ParseCodec(spec)
			if err != nil {
				return variant{}, err
			}
			return variant{label: codec.Name(), apply: func(cfg *core.Config, _ *Federation) error {
				cfg.Codec = codec.Name()
				return nil
			}}, nil
		},
		title: "Codec sweep: %d clients, FedFT-EDS locals, uplink wire simulation",
		// The identity row round-trips losslessly through the same wire
		// path, so any accuracy gap in the other rows is pure codec effect,
		// not accounting drift.
		baseline: comm.CodecIdentity,
		columns: []column{colLabel("codec", -12),
			{"ratio", 8, func(r, base *SweepRow) string {
				if base == nil || r.Hist.TotalUplinkBytes <= 0 {
					return "n/a"
				}
				return fmt.Sprintf("%.2fx", float64(base.Hist.TotalUplinkBytes)/float64(r.Hist.TotalUplinkBytes))
			}},
			colUplinkKB, colSaved, colBest, colFinal,
			{"Δfinal", 10, func(r, base *SweepRow) string {
				if base == nil {
					return "n/a"
				}
				return fmt.Sprintf("%+.2fpt", 100*(r.Hist.FinalAccuracy-base.Hist.FinalAccuracy))
			}}},
	},
}

// AxisByID returns the axis registered under an experiment id, or nil.
func AxisByID(id string) *Axis {
	for _, a := range Axes {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// renderMix counts an assignment into "tier×n" form, tiers ascending.
func renderMix(assign []string) string {
	counts := map[string]int{}
	for _, tier := range assign {
		counts[tier]++
	}
	parts := []string{}
	for _, tier := range device.TierNames() {
		if n := counts[tier]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", tier, n))
		}
	}
	return strings.Join(parts, " ")
}

// RunSweep runs one axis: its leading baseline row if it has one, then one
// row per spec (opts.Only's entry for the axis, else the standard lineup).
// Every row gets a freshly built — and therefore identical — federation and
// pretrained model, so no row can see another's edits.
func RunSweep(env *Env, a *Axis, opts SweepOptions) (*SweepResult, error) {
	n := env.Dims.SmallClients
	if a.largePool {
		n = env.Dims.LargeClients
	}
	seed := tensor.DeriveSeed(uint64(env.Seed), a.seedTag)
	specs := a.Lineup
	if only := opts.Only[a.ID]; only != "" {
		specs = []string{only}
	}
	var variants []variant
	if a.first != nil {
		variants = append(variants, *a.first)
	}
	for _, spec := range specs {
		v, err := a.parse(spec, n, seed, opts)
		if err != nil {
			return nil, err
		}
		variants = append(variants, v)
	}

	res := &SweepResult{NumClients: n, axis: a, title: fmt.Sprintf(a.title, n)}
	if a.titleNote != nil {
		res.title += a.titleNote(opts)
	}
	for _, v := range variants {
		fed, err := env.BuildFederation(env.Suite.Target10, n, 0.1, a.salt)
		if err != nil {
			return nil, err
		}
		global, err := env.PretrainedModel(env.Suite.Target10, env.Suite.Source)
		if err != nil {
			return nil, err
		}
		cfg := env.baseConfig(seed)
		if v.apply != nil {
			if err := v.apply(&cfg, fed); err != nil {
				return nil, err
			}
		}
		if v.run == "" {
			v.run = v.label
		}
		name := fmt.Sprintf("%s-%s-c%d", a.run, v.run, n)
		hist, err := env.runFL(name, cfg, v.async, func(cfg core.Config) (*core.Runner, error) {
			return core.NewRunner(cfg, global, fed.Clients, fed.Test)
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SweepRow{Label: v.label, Size: v.size, Mix: v.mix, Hist: hist})
	}
	return res, nil
}

// column is one table column: its header, its width (negative left-aligns)
// and how a row's cell reads. base is the axis's baseline row, nil when the
// sweep has none.
type column struct {
	head  string
	width int
	cell  func(row, base *SweepRow) string
}

// The cells every table shares are defined once: accuracy in percent,
// simulated client-seconds, the paper's learning efficiency (best accuracy
// in percent per client-second, as History.LearningEfficiency returns it),
// uplink traffic and the share of it saved against the baseline row.
var (
	colBest = column{"best acc", 9, func(r, _ *SweepRow) string {
		return fmt.Sprintf("%.2f%%", 100*r.Hist.BestAccuracy)
	}}
	colFinal = column{"final acc", 9, func(r, _ *SweepRow) string {
		return fmt.Sprintf("%.2f%%", 100*r.Hist.FinalAccuracy)
	}}
	colUplinkKB = column{"uplink KB", 11, func(r, _ *SweepRow) string {
		return fmt.Sprintf("%.1f", float64(r.Hist.TotalUplinkBytes)/1024)
	}}
	colSaved = column{"saved", 9, func(r, base *SweepRow) string {
		if base == nil || base.Hist.TotalUplinkBytes <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*(1-float64(r.Hist.TotalUplinkBytes)/float64(base.Hist.TotalUplinkBytes)))
	}}
)

func colLabel(head string, width int) column {
	return column{head, width, func(r, _ *SweepRow) string { return r.Label }}
}

func colSeconds(head string, width int) column {
	return column{head, width, func(r, _ *SweepRow) string {
		return fmt.Sprintf("%.4g", r.Hist.TotalTrainSeconds)
	}}
}

func colEfficiency(head string, width int) column {
	return column{head, width, func(r, _ *SweepRow) string {
		eff, err := r.Hist.LearningEfficiency()
		if err != nil {
			return "n/a"
		}
		return fmt.Sprintf("%.4g", eff)
	}}
}

// Render prints the sweep as a table: the title, the axis's column headers,
// one line per row.
func (r *SweepResult) Render() string {
	var base *SweepRow
	for i := range r.Rows {
		if r.Rows[i].Label == r.axis.baseline {
			base = &r.Rows[i]
			break
		}
	}
	var b strings.Builder
	b.WriteString(r.title)
	line := func(cell func(column) string) {
		sep := "\n"
		for _, col := range r.axis.columns {
			fmt.Fprintf(&b, "%s%*s", sep, col.width, cell(col))
			sep = " "
		}
	}
	line(func(col column) string { return col.head })
	for i := range r.Rows {
		line(func(col column) string { return col.cell(&r.Rows[i], base) })
	}
	b.WriteByte('\n')
	return b.String()
}
