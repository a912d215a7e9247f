// Command fedsim runs the paper-reproduction experiments and prints each
// table or figure as text.
//
// Usage:
//
//	fedsim -exp table2 -scale fast -seed 1
//	fedsim -exp all -scale full
//	fedsim -exp sched -scale fast -cohort 6 -sched entropy
//	fedsim -exp all -scale full -ckpt-dir runs/ -resume
//
// With -ckpt-dir every federated run checkpoints into its own subdirectory
// (every -ckpt-every rounds, default 1); -resume makes an interrupted sweep
// pick up where it stopped — finished runs reload instantly and partial
// runs continue mid-run, bit-identical to an uninterrupted sweep.
//
// Experiment ids: table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6
// fig7 fig8 fig9 fig10a fig10a-indomain fig10b fig10c ablations sched
// strategies tiers async codecs fleet fleetday all (fig10a-indomain, Fig. 10a
// with in-domain pretraining, runs only when named). See DESIGN.md for the
// experiment index.
//
// The sched experiment compares cohort-scheduling policies (accuracy vs
// cumulative client-seconds at a fixed cohort size K). -sched narrows it to
// one policy — the names are the same ones fedserver accepts (uniform,
// size, entropy, powerd, tier, cluster:<inner>, avail:<inner>) — and
// -cohort sets K (0 picks a scale-appropriate default).
//
// The strategies experiment compares federated-optimization strategies
// (fedavg, fedprox, fedavgm, fedadam, fedyogi) on one federation; -strategy
// narrows it to one spec, parameters included ("fedadam:lr=0.05"), using
// the same names fedserver accepts.
//
// The tiers experiment sweeps device-tier distributions on one federation —
// homogeneous capability classes and a heterogeneous mix — reporting each
// row's accuracy, simulated client-seconds, and the uplink bytes per-client
// partial training saves. -tier-dist narrows it to one distribution spec
// ("low:1,mid:2,full:1"), the same format fedserver and fedclient accept.
//
// The codecs experiment sweeps uplink codecs (identity, float16, int8,
// topk:0.05) on one federation, round-tripping every client update through
// the codec exactly as the distributed wire path would, and reports each
// row's compression ratio, uplink traffic and accuracy against the identity
// baseline. -codec narrows it to one spec, the same names fedserver and
// fedclient accept.
//
// The async experiment compares the synchronous engine against buffered
// asynchronous (FedBuff-style) aggregation over a simulated-time event
// queue: the server aggregates as soon as -buffer updates arrive, stale
// updates are discounted by the -staleness weigher (identity, invsqrt,
// poly:alpha=A — the same specs fedserver accepts) and optionally discarded
// past -max-staleness versions.
//
// The fleet experiments simulate populations far beyond what fits in memory
// by keeping clients virtual — per-client seeds plus descriptors — and
// materializing datasets only while a client is in the cohort:
//
//	fedsim -exp fleet -scale fast                 policy sweep over a virtual fleet
//	fedsim -fleet -clients 1000000                a 24-round simulated day, 1M clients
//	fedsim -fleet -clients 1000000 -buffer 32     the same day, overlapping rounds
//	fedsim -fleet -clients 50000 -trace day.trace replayed availability
//
// -clients sets the population (0 = scale default), -trace replays a
// "fleettrace v1" availability file (default: a built-in diurnal day/night
// pattern), and -sched sets the cohort policy (default cluster:uniform, the
// similarity-aware scheduler). Without -fleet, a large -clients value that
// would not fit in memory eagerly is refused up front with an estimate.
// The synchronous day run honors -ckpt-dir/-resume like every experiment, so
// a 1M-client day can be killed and resumed mid-day bit-identically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fedfteds/internal/experiments"
	"fedfteds/internal/fleet"
	"fedfteds/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedsim", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "experiment id (table1..table4, fig1..fig10c, fig10a-indomain, ablations, sched, strategies, tiers, async, codecs, fleet, fleetday, all)")
	scaleFlag := fs.String("scale", "fast", "experiment scale: smoke, fast or full")
	seedFlag := fs.Int64("seed", 1, "run seed")
	// Each comparison axis brings its own narrowing flag (-sched, -strategy,
	// -tier-dist, -staleness, -codec): "all" runs the axis's lineup.
	only := make(map[string]*string, len(experiments.Axes))
	for _, axis := range experiments.Axes {
		only[axis.ID] = fs.String(axis.Flag, "all", axis.Usage)
	}
	cohortFlag := fs.Int("cohort", 0, "sched experiment: cohort size K, 0 = scale default")
	bufferFlag := fs.Int("buffer", 0, "async experiment: aggregation buffer M, 0 = scale default (about a third of the pool)")
	maxStaleFlag := fs.Int("max-staleness", -1, "async experiment: discard updates staler than this many versions (negative keeps all)")
	clientsFlag := fs.Int("clients", 0, "fleet experiments: virtual fleet population (0 = scale default)")
	fleetFlag := fs.Bool("fleet", false, "run the virtual-fleet simulated day (O(cohort) memory; default experiment becomes fleetday)")
	traceFlag := fs.String("trace", "", "fleet experiments: replay availability from a fleettrace v1 file (default: built-in diurnal trace)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	ckptDir := fs.String("ckpt-dir", "", "checkpoint artifact store: every federated run checkpoints into its own subdirectory")
	ckptEvery := fs.Int("ckpt-every", 0, "rounds between checkpoints (default 1; needs -ckpt-dir)")
	resume := fs.Bool("resume", false, "resume each run from its latest stored checkpoint (needs -ckpt-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Checkpoint flags fail fast, before any experiment trains: a bad
	// directory or an inconsistent combination must not surface an hour in.
	if *ckptEvery < 0 {
		return fmt.Errorf("-ckpt-every %d is negative", *ckptEvery)
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		return fmt.Errorf("-ckpt-every %d without -ckpt-dir", *ckptEvery)
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume without -ckpt-dir")
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("-ckpt-dir: %w", err)
		}
	}
	stopProfiles, err := profile.Start("fedsim", *cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	// Fail on a bad policy name, cohort or strategy spec now, whatever
	// experiments run.
	opts := options{sweep: experiments.SweepOptions{
		Only: map[string]string{}, Cohort: *cohortFlag, Buffer: *bufferFlag, MaxStaleness: *maxStaleFlag,
	}}
	for _, axis := range experiments.Axes {
		if spec := *only[axis.ID]; spec != "all" {
			if err := axis.Validate(spec); err != nil {
				return err
			}
			opts.sweep.Only[axis.ID] = spec
		}
	}
	if *cohortFlag < 0 {
		return fmt.Errorf("-cohort %d is negative", *cohortFlag)
	}
	if *bufferFlag < 0 {
		return fmt.Errorf("-buffer %d is negative", *bufferFlag)
	}
	if *clientsFlag < 0 {
		return fmt.Errorf("-clients %d is negative", *clientsFlag)
	}
	if *traceFlag != "" {
		// Parse failures surface now, not after an hour of other experiments.
		if _, err := fleet.LoadTrace(*traceFlag); err != nil {
			return err
		}
	}
	// Without -fleet the day run materializes every client eagerly; refuse
	// populations that cannot fit instead of letting the OOM killer explain.
	const eagerClientBudget = 2 << 30
	if !*fleetFlag && *clientsFlag > 0 {
		if est := experiments.FleetEagerBytes(*clientsFlag); est > eagerClientBudget {
			return fmt.Errorf("materializing %d clients eagerly needs ~%.1f GiB of client data "+
				"(budget %d GiB); pass -fleet to keep them virtual with O(cohort) residency",
				*clientsFlag, float64(est)/(1<<30), eagerClientBudget>>30)
		}
	}
	opts.fleet = experiments.FleetOptions{
		Clients: *clientsFlag, Cohort: *cohortFlag, TracePath: *traceFlag,
		Buffer: *bufferFlag, MaxStaleness: *maxStaleFlag, Eager: !*fleetFlag,
		Policy: opts.sweep.Only["sched"],
	}
	env, err := experiments.NewEnv(scale, *seedFlag)
	if err != nil {
		return err
	}
	if err := env.SetCheckpointPolicy(experiments.CheckpointPolicy{
		Dir: *ckptDir, Every: *ckptEvery, Resume: *resume,
	}); err != nil {
		return err
	}

	ids := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		// table2+figs and table3+figs are composite ids that run the
		// underlying experiment once and render every artifact from it.
		ids = []string{"fig1", "table1", "fig2", "fig3", "table2+figs",
			"table3+figs", "table4", "fig10a", "fig10b", "fig10c", "ablations",
			"sched", "strategies", "tiers", "async", "codecs", "fleet"}
		if *fleetFlag || *clientsFlag > 0 {
			// -fleet (or an explicit population) asks for the simulated day,
			// not the whole paper sweep.
			ids = []string{"fleetday"}
		}
	}
	for _, id := range ids {
		start := time.Now()
		out, err := runExperiment(env, strings.TrimSpace(id), opts)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v at scale %s]\n\n", id, time.Since(start).Round(time.Millisecond), scale)
	}
	return nil
}

// options is what the flags say about how experiments run.
type options struct {
	// sweep narrows and sizes the comparison axes.
	sweep experiments.SweepOptions
	// fleet parameterizes the fleet and fleetday experiments.
	fleet experiments.FleetOptions
}

// render is the tail every experiment shares: the result's text, or the
// run's error.
func render[R interface{ Render() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// figures renders the given per-(dataset, alpha) figures of one table run
// for each of its datasets and both Dirichlet concentrations.
func figures(res *experiments.Result, renders ...func(dataset string, alpha float64) string) string {
	var b strings.Builder
	for _, ds := range res.Datasets() {
		for _, alpha := range []float64{0.1, 0.5} {
			for _, fig := range renders {
				b.WriteString(fig(ds, alpha))
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// runExperiment dispatches one experiment id: a comparison axis by its
// table entry, anything else by name. Figure ids that share a run with a
// table (fig5..fig9) re-run the underlying table at this scale; the
// composite ids table2+figs and table3+figs run it once for every artifact.
func runExperiment(env *experiments.Env, id string, opts options) (string, error) {
	if axis := experiments.AxisByID(id); axis != nil {
		return render(experiments.RunSweep(env, axis, opts.sweep))
	}
	switch id {
	case "fleet":
		// The policy sweep is always fleet-backed (the eager baseline is
		// fleetday's job) and sized by scale unless -clients overrides.
		fleetOpts := opts.fleet
		fleetOpts.Eager = false
		return render(experiments.RunFleetCompare(env, fleetOpts))
	case "fleetday":
		return render(experiments.RunFleetDay(env, opts.fleet))
	case "table2", "table2+figs", "fig5", "fig6":
		res, err := experiments.RunTable2(env)
		if err != nil {
			return "", err
		}
		switch id {
		case "table2":
			return res.Render(), nil
		case "fig5":
			return figures(res, res.RenderFigure5), nil
		case "fig6":
			return figures(res, res.RenderFigure6), nil
		}
		return res.Render() + "\n" + figures(res, res.RenderFigure5, res.RenderFigure6), nil
	case "table3", "table3+figs", "fig7", "fig8", "fig9":
		res, err := experiments.RunTable3(env)
		if err != nil {
			return "", err
		}
		switch id {
		case "table3":
			return res.Render(), nil
		case "fig7":
			return figures(res, res.RenderFigure7), nil
		case "fig8":
			return figures(res, res.RenderFigure8), nil
		case "fig9":
			return figures(res, res.RenderFigure9), nil
		}
		return res.Render() + "\n" + figures(res, res.RenderFigure7, res.RenderFigure8, res.RenderFigure9), nil
	case "table1":
		return render(experiments.RunTable1(env))
	case "table4":
		return render(experiments.RunTable4(env))
	case "fig1":
		return render(experiments.RunFig1(env))
	case "fig2", "fig4":
		return render(experiments.RunCKA(env, 0.1))
	case "fig3":
		return render(experiments.RunCKA(env, 0.5))
	case "fig10a":
		return render(experiments.RunFig10a(env))
	case "fig10a-indomain":
		out, err := render(experiments.RunFig10aInDomain(env))
		return "[in-domain pretraining variant]\n" + out, err
	case "fig10b":
		return render(experiments.RunFig10b(env))
	case "fig10c":
		return render(experiments.RunFig10c(env))
	case "ablations":
		var b strings.Builder
		for _, run := range []func(*experiments.Env) (*experiments.Result, error){
			experiments.RunAblationBatchEntropy,
			experiments.RunAblationAggWeighting,
			experiments.RunAblationAcquisition,
		} {
			out, err := render(run(env))
			if err != nil {
				return "", err
			}
			b.WriteString(out + "\n")
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("unknown experiment id %q", id)
	}
}
