package experiments

import (
	"fmt"
	"strings"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/device"
	"fedfteds/internal/sched"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// The comparison experiments beyond the paper's own tables — cohort
// schedulers, server strategies, device tiers, uplink codecs, buffered-async
// aggregation — are one program: FedFT-EDS(50%, moderate) locals on one
// federation, one core.Config axis varied per row, every row under the same
// clients, model initialization and seed so the comparison isolates the axis
// and not the run randomness. An Axis describes what varies and which
// columns its table prints; RunSweep declares its grid.

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
	first *Arm
	// parse turns one spec into its arm for an n-client pool.
	parse func(spec string, n int, seed int64, opts SweepOptions) (Arm, error)
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
		Usage:  "sched experiment: one policy (" + strings.Join(sched.PolicyNames(), ", ") + ") or all; also the fleetday cohort policy",
		Lineup: []string{"uniform", "size", "entropy", "powerd", "avail:uniform"},
		run:    "sched", largePool: true, salt: 4242, seedTag: sched.StreamTag,
		parse: func(spec string, n int, _ int64, opts SweepOptions) (Arm, error) {
			policy, err := sched.Parse(spec)
			if err != nil {
				return Arm{}, err
			}
			k := thirdOfPool(opts.Cohort, n)
			return Arm{Label: spec, Run: fmt.Sprintf("%s-k%d", spec, k), Size: k,
				Edit: func(cfg *core.Config, _ *Federation) error {
					cfg.Scheduler, cfg.CohortSize = policy, k
					return nil
				}}, nil
		},
		title: "Scheduler comparison: cohort K of %d clients, FedFT-EDS locals",
		columns: []column{colLabel("policy", -14),
			{"K", 3, func(r, _ *Cell) string { return fmt.Sprint(r.Arm.Size) }},
			colBest, colFinal, colSeconds("client-seconds", 14),
			{"participants", 13, func(r, _ *Cell) string {
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
		parse: func(spec string, _ int, _ int64, _ SweepOptions) (Arm, error) {
			// Parsed afresh per row, so a stateful server optimizer never
			// leaks across rows.
			strat, err := strategy.Parse(spec)
			if err != nil {
				return Arm{}, err
			}
			return Arm{Label: spec, Edit: func(cfg *core.Config, _ *Federation) error {
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
		parse: func(spec string, n int, seed int64, _ SweepOptions) (Arm, error) {
			dist, err := device.ParseDistribution(spec)
			if err != nil {
				return Arm{}, err
			}
			// The Runner derives this same deterministic assignment; charging
			// each client at its tier's rate (core.TierClient, as a served
			// client charges itself) makes low tiers slow as well as
			// partially trained, the heterogeneity per-layer aggregation is for.
			assign := dist.Assign(n, seed)
			return Arm{Label: dist.String(), Mix: renderMix(assign),
				Edit: func(cfg *core.Config, fed *Federation) (err error) {
					cfg.TierDist = dist
					for i, cl := range fed.Clients {
						if fed.Clients[i], err = core.TierClient(cl, assign[i]); err != nil {
							return err
						}
					}
					return nil
				}}, nil
		},
		title:    "Tier sweep: %d clients, FedFT-EDS locals, per-layer aggregation",
		baseline: "full:1",
		columns: []column{colLabel("distribution", -20),
			{"mix", -22, func(r, _ *Cell) string { return r.Arm.Mix }},
			colBest, colFinal, colSeconds("client-s", 11), colUplinkKB, colSaved},
	},
	{
		ID: "async", Flag: "staleness",
		Usage:  "async experiment: one staleness weigher (" + strings.Join(strategy.StalenessNames(), ", ") + ", with optional parameters) or all",
		Lineup: []string{"identity", "invsqrt", "poly:alpha=1"},
		run:    "async", largePool: true, salt: 6464, seedTag: 0xA21C,
		first: &Arm{Label: "sync"},
		parse: func(spec string, n int, _ int64, opts SweepOptions) (Arm, error) {
			weigher, err := strategy.ParseStaleness(spec)
			if err != nil {
				return Arm{}, err
			}
			m := thirdOfPool(opts.Buffer, n)
			return Arm{Label: weigher.Name(), Size: m, Edit: func(c *core.Config, _ *Federation) error {
				c.Async = core.AsyncConfig{Buffer: m, MaxStaleness: opts.MaxStaleness, Weigher: weigher}
				return nil
			}}, nil
		},
		title: "Buffered-async comparison: %d clients",
		titleNote: func(opts SweepOptions) string {
			if opts.MaxStaleness < 0 {
				return ", staleness cap unlimited"
			}
			return fmt.Sprintf(", staleness cap %d", opts.MaxStaleness)
		},
		columns: []column{colLabel("mode", -14),
			{"buffer", 6, func(r, _ *Cell) string {
				if r.Arm.Size == 0 {
					return "-"
				}
				return fmt.Sprint(r.Arm.Size)
			}},
			colBest, colFinal, colSeconds("client-seconds", 14), colEfficiency("efficiency", 11),
			// An async record's cohort is the updates that arrived for the
			// aggregation, its participants the ones within the staleness cap.
			{"discarded", 9, func(r, _ *Cell) string {
				discarded := 0
				if r.Arm.Size > 0 {
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
		parse: func(spec string, _ int, _ int64, _ SweepOptions) (Arm, error) {
			codec, err := comm.ParseCodec(spec)
			if err != nil {
				return Arm{}, err
			}
			return Arm{Label: codec.Name(), Edit: func(cfg *core.Config, _ *Federation) error {
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
			{"ratio", 8, func(r, base *Cell) string {
				if base == nil || r.Hist.TotalUplinkBytes <= 0 {
					return "n/a"
				}
				return fmt.Sprintf("%.2fx", float64(base.Hist.TotalUplinkBytes)/float64(r.Hist.TotalUplinkBytes))
			}},
			colUplinkKB, colSaved, colBest, colFinal,
			{"Δfinal", 10, func(r, base *Cell) string {
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
// row per spec (opts.Only's entry for the axis, else the standard lineup),
// every row on the same federation and pretrained model under one seed.
func RunSweep(env *Env, a *Axis, opts SweepOptions) (*Result, error) {
	n := env.Dims.SmallClients
	if a.largePool {
		n = env.Dims.LargeClients
	}
	seed := tensor.DeriveSeed(uint64(env.Seed), a.seedTag)
	specs := a.Lineup
	if only := opts.Only[a.ID]; only != "" {
		specs = []string{only}
	}
	var arms []Arm
	if a.first != nil {
		arms = append(arms, *a.first)
	}
	for _, spec := range specs {
		arm, err := a.parse(spec, n, seed, opts)
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm)
	}
	title := fmt.Sprintf(a.title, n)
	if a.titleNote != nil {
		title += a.titleNote(opts)
	}
	return env.runGrid(Grid{
		Feds:    []FedSpec{{Target: env.Suite.Target10, Clients: n, Alpha: 0.1, Salt: a.salt}},
		Arms:    arms,
		Source:  env.Suite.Source,
		RunName: fmt.Sprintf("%s-%%s-c%d", a.run, n),
		Seed:    seed,
	}, func(r *Result) string { return a.render(title, r) })
}

// column is one table column: its header, its width (negative left-aligns)
// and how a row's cell reads. base is the axis's baseline row, nil when the
// sweep has none.
type column struct {
	head  string
	width int
	cell  func(row, base *Cell) string
}

// The cells every table shares are defined once: accuracy in percent,
// simulated client-seconds, the paper's learning efficiency (best accuracy
// in percent per client-second, as History.LearningEfficiency returns it),
// uplink traffic and the share of it saved against the baseline row.
var (
	colBest = column{"best acc", 9, func(r, _ *Cell) string {
		return fmt.Sprintf("%.2f%%", 100*r.Hist.BestAccuracy)
	}}
	colFinal = column{"final acc", 9, func(r, _ *Cell) string {
		return fmt.Sprintf("%.2f%%", 100*r.Hist.FinalAccuracy)
	}}
	colUplinkKB = column{"uplink KB", 11, func(r, _ *Cell) string {
		return fmt.Sprintf("%.1f", float64(r.Hist.TotalUplinkBytes)/1024)
	}}
	colSaved = column{"saved", 9, func(r, base *Cell) string {
		if base == nil || base.Hist.TotalUplinkBytes <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*(1-float64(r.Hist.TotalUplinkBytes)/float64(base.Hist.TotalUplinkBytes)))
	}}
)

func colLabel(head string, width int) column {
	return column{head, width, func(r, _ *Cell) string { return r.Arm.Label }}
}

func colSeconds(head string, width int) column {
	return column{head, width, func(r, _ *Cell) string {
		return fmt.Sprintf("%.4g", r.Hist.TotalTrainSeconds)
	}}
}

func colEfficiency(head string, width int) column {
	return column{head, width, func(r, _ *Cell) string {
		eff, err := r.Hist.LearningEfficiency()
		if err != nil {
			return "n/a"
		}
		return fmt.Sprintf("%.4g", eff)
	}}
}

// render prints a sweep as a table: the title, the axis's column headers,
// one line per row.
func (a *Axis) render(title string, r *Result) string {
	var base *Cell
	for i := range r.Cells {
		if r.Cells[i].Arm.Label == a.baseline {
			base = &r.Cells[i]
			break
		}
	}
	var b strings.Builder
	b.WriteString(title)
	line := func(cell func(column) string) {
		sep := "\n"
		for _, col := range a.columns {
			fmt.Fprintf(&b, "%s%*s", sep, col.width, cell(col))
			sep = " "
		}
	}
	line(func(col column) string { return col.head })
	for i := range r.Cells {
		line(func(col column) string { return col.cell(&r.Cells[i], base) })
	}
	b.WriteByte('\n')
	return b.String()
}
