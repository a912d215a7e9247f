package experiments

import (
	"fmt"
	"slices"

	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// The paper's Tables I–IV and Figs. 5–10, and the ablations DESIGN.md calls
// out beyond them, each as one grid declaration and its rendering, over the
// arm edits the tables share.

const (
	// table2Pds is the close-domain selection fraction (paper: 10%).
	table2Pds = 0.10
	// fig10Pds is the selection fraction of the ablation study (paper: 50%).
	fig10Pds = 0.5
)

// recipe is the arm edit of the paper's method lists: the trainable part
// and the data selection at P_ds.
func recipe(part models.FinetunePart, sel selection.Selector, pds float64) Edit {
	return func(c *core.Config, _ *Federation) error {
		c.FinetunePart, c.Selector, c.SelectFraction = part, sel, pds
		return nil
	}
}

// Arm edits shared by the paper's tables: FedAvg trains the whole model on
// all its data; FedFT trains the moderate part on an entropy or random
// selection.
var fedAvg = recipe(models.FinetuneFull, selection.All{}, 1)

func eds(pds float64) Edit {
	return recipe(models.FinetuneModerate, selection.Entropy{Temperature: paperTemperature}, pds)
}

func rds(pds float64) Edit { return recipe(models.FinetuneModerate, selection.Random{}, pds) }

// prox runs an edit's recipe under FedProx at the paper's μ.
func prox(edit Edit) Edit {
	return func(c *core.Config, f *Federation) (err error) {
		if err = edit(c, f); err == nil {
			c.Strategy, err = strategy.FedProx(paperProxMu)
		}
		return err
	}
}

// participating runs an edit's recipe with fn of the sampled clients
// completing each round.
func participating(fn float64, edit Edit) Edit {
	return func(c *core.Config, f *Federation) error {
		c.Straggler = simtime.FractionParticipation{Fraction: fn}
		return edit(c, f)
	}
}

// RunTable1 reproduces Table I: FedAvg on the 10-class target with no
// pretraining, close-source pretraining and broad-source pretraining, under
// two heterogeneity levels. Every row runs as "FedAvg", seed included: only
// the model's start differs.
func RunTable1(env *Env) (*Result, error) {
	s := env.Suite
	var feds []FedSpec
	for _, alpha := range []float64{0.1, 0.5} {
		// Data-scarce clients: pretraining's benefit concentrates where
		// local data cannot train a feature extractor from scratch.
		feds = append(feds, FedSpec{Target: s.Target10, Clients: env.Dims.SmallClients,
			Samples: env.Dims.SamplesPerClient, Alpha: alpha, Salt: int64(alpha * 100)})
	}
	return env.runGrid(Grid{Feds: feds, Salt: 1, Arms: []Arm{
		{Label: "none", Run: "FedAvg", Fresh: true, Edit: fedAvg},
		{Label: s.SourceClose.Spec.Name, Run: "FedAvg", Source: s.SourceClose, Edit: fedAvg},
		{Label: s.Source.Spec.Name, Run: "FedAvg", Source: s.Source, Edit: fedAvg},
	}}, func(r *Result) string {
		return r.armTable("Table I — pretraining improves FL top-1 accuracy (%) on the downstream task",
			[]string{"Pretraining"}, func(f *FedSpec) string { return fmt.Sprintf("Diri(%g)", f.Alpha) }, nil)
	})
}

// table2Arms is the paper's Table II method list.
func table2Arms() []Arm {
	pds := func(name string) string { return fmt.Sprintf("%s (%.0f%%)", name, table2Pds*100) }
	return []Arm{
		{Label: "FedAvg w/o pt", Fresh: true, Edit: fedAvg},
		{Label: "FedAvg", Edit: fedAvg},
		{Label: pds("FedAvg-RDS"), Edit: recipe(models.FinetuneFull, selection.Random{}, table2Pds)},
		{Label: "FedProx", Edit: prox(fedAvg)},
		{Label: pds("FedProx-RDS"), Edit: prox(recipe(models.FinetuneFull, selection.Random{}, table2Pds))},
		{Label: pds("FedFT-RDS"), Edit: rds(table2Pds)},
		{Label: pds("FedFT-EDS"), Edit: eds(table2Pds)},
	}
}

// closeDomainFeds is Tables II and III's federations: both close-domain
// targets under Diri(0.1) and Diri(0.5).
func closeDomainFeds(env *Env, clients int, salt int64) ([]FedSpec, error) {
	t100, err := env.Target100()
	if err != nil {
		return nil, err
	}
	var feds []FedSpec
	for ti, target := range []*data.Domain{env.Suite.Target10, t100} {
		for _, alpha := range []float64{0.1, 0.5} {
			feds = append(feds, FedSpec{Target: target, Clients: clients, Alpha: alpha,
				Salt: salt + int64(ti*1000) + int64(alpha*100)})
		}
	}
	return feds, nil
}

// RunTable2 reproduces Table II, the close-domain comparison, whose runs
// also give Fig. 5's curves and Fig. 6's learning-efficiency points.
func RunTable2(env *Env) (*Result, error) {
	feds, err := closeDomainFeds(env, env.Dims.SmallClients, 0)
	if err != nil {
		return nil, err
	}
	return env.runGrid(Grid{Feds: feds, Arms: table2Arms(), Source: env.Suite.Source, Salt: 2, Central: true},
		func(r *Result) string {
			return r.armTable("Table II — global model top-1 accuracy (%), full participation",
				[]string{"Method"}, datasetAlpha, nil)
		})
}

// RunTable3 reproduces Table III, the large-pool straggler experiment,
// whose runs also give Fig. 7's efficiency points and Figs. 8–9's curves.
func RunTable3(env *Env) (*Result, error) {
	feds, err := closeDomainFeds(env, env.Dims.LargeClients, 7000)
	if err != nil {
		return nil, err
	}
	return env.runGrid(Grid{Feds: feds, Source: env.Suite.Source, Salt: 3, Arms: []Arm{
		{Label: "FedAvg w/o pt", Fresh: true, Edit: fedAvg},
		{Label: "FedAvg 100% c.p.", Edit: fedAvg},
		{Label: "FedAvg 20% c.p.", Edit: participating(0.2, fedAvg)},
		{Label: "FedAvg 10% c.p.", Edit: participating(0.1, fedAvg)},
		{Label: "FedFT-RDS (10%)", Edit: rds(0.1)},
		{Label: "FedFT-EDS (10%)", Edit: eds(0.1)},
		{Label: "FedFT-ALL", Edit: recipe(models.FinetuneModerate, selection.All{}, 1)},
		{Label: "FedFT-RDS (50%)", Edit: rds(0.5)},
		{Label: "FedFT-EDS (50%)", Edit: eds(0.5)},
	}}, func(r *Result) string {
		return r.armTable("Table III — top-1 accuracy (%) with the large client pool and straggler simulation",
			[]string{"Method", "fn", "Pds"}, datasetAlpha, func(c Cell) []string {
				fn := 1.0
				if p, ok := c.Config.Straggler.(simtime.FractionParticipation); ok {
					fn = p.Fraction
				}
				return []string{percent(fn), percent(c.Config.SelectFraction)}
			})
	})
}

// RunTable4 reproduces Table IV: cross-domain evaluation on the
// speech-commands analogue (far target, Diri(0.1), full participation on
// the large client pool).
func RunTable4(env *Env) (*Result, error) {
	fed := FedSpec{Target: env.Suite.Far, Clients: env.Dims.LargeClients, Alpha: 0.1, Salt: 9000}
	return env.runGrid(Grid{Feds: []FedSpec{fed}, Source: env.Suite.Source, Salt: 4, Central: true, Arms: []Arm{
		{Label: "FedAvg w/o pt", Fresh: true, Edit: fedAvg},
		{Label: "FedAvg w/ pt", Edit: fedAvg},
		{Label: "FedFT-RDS (10%)", Edit: rds(0.1)},
		{Label: "FedFT-EDS (10%)", Edit: eds(0.1)},
		{Label: "FedFT-RDS (50%)", Edit: rds(0.5)},
		{Label: "FedFT-EDS (50%)", Edit: eds(0.5)},
	}}, func(r *Result) string {
		return r.armTable("Table IV — cross-domain top-1 accuracy (%) on the speech-command analogue, Diri(0.1)",
			[]string{"Method", "Pds"}, func(*FedSpec) string { return "Top-1 Acc" },
			func(c Cell) []string { return []string{percent(c.Config.SelectFraction)} })
	})
}

// datasetAlpha heads a federation's column as Tables II and III do.
func datasetAlpha(f *FedSpec) string { return fmt.Sprintf("%s α=%g", f.Target.Spec.Name, f.Alpha) }

// percent formats a fraction as a whole percentage.
func percent(p float64) string { return fmt.Sprintf("%.0f%%", 100*p) }

// armTable prints one row per arm: its label, lead's cells from its first
// run, then its best accuracy on each federation, headed by col.
func (r *Result) armTable(title string, head []string, col func(*FedSpec) string, lead func(Cell) []string) string {
	feds := distinct(r.Cells, func(c Cell) *FedSpec { return c.Fed })
	for _, f := range feds {
		head = append(head, col(f))
	}
	tbl := NewTable(title, head...)
	for _, label := range distinct(r.Cells, func(c Cell) string { return c.Arm.Label }) {
		row := []string{label}
		for i, f := range feds {
			c, ok := r.Get(label, f.Target.Spec.Name, f.Alpha)
			if i == 0 && lead != nil {
				row = append(row, lead(c)...)
			}
			if ok {
				row = append(row, Pct(c.Hist.BestAccuracy))
			} else {
				row = append(row, "")
			}
		}
		tbl.AddRow(row...)
	}
	return tbl.String()
}

// RenderFigure5 prints Table II's learning curves (Fig. 5) for one
// dataset/alpha.
func (r *Result) RenderFigure5(dataset string, alpha float64) string {
	return r.curves("Fig. 5 — learning curves", dataset, alpha)
}

// RenderFigure6 prints Table II's learning-efficiency scatter (Fig. 6) for
// one dataset/alpha: accuracy vs accuracy-per-training-second.
func (r *Result) RenderFigure6(dataset string, alpha float64) string {
	return r.efficiency("Fig. 6 — learning efficiency", dataset, alpha)
}

// RenderFigure7 prints Table III's learning-efficiency points (Fig. 7).
func (r *Result) RenderFigure7(dataset string, alpha float64) string {
	return r.efficiency("Fig. 7 — learning efficiency at scale", dataset, alpha)
}

// RenderFigure8 prints Table III's FedAvg-participation vs FedFT-EDS curves
// (Fig. 8).
func (r *Result) RenderFigure8(dataset string, alpha float64) string {
	return r.curves("Fig. 8 — participation curves", dataset, alpha,
		"FedAvg w/o pt", "FedAvg 100% c.p.", "FedAvg 20% c.p.", "FedAvg 10% c.p.", "FedFT-EDS (10%)")
}

// RenderFigure9 prints Table III's selection-fraction curves (Fig. 9).
func (r *Result) RenderFigure9(dataset string, alpha float64) string {
	return r.curves("Fig. 9 — selection-fraction curves", dataset, alpha,
		"FedFT-RDS (10%)", "FedFT-EDS (10%)", "FedFT-RDS (50%)", "FedFT-EDS (50%)", "FedFT-ALL")
}

// curves prints one federation's learning curves, of the arms labelled in
// keep or of every arm.
func (r *Result) curves(title, dataset string, alpha float64, keep ...string) string {
	var series []Series
	for _, c := range r.Cells {
		if c.on(dataset, alpha) && (len(keep) == 0 || slices.Contains(keep, c.Arm.Label)) {
			series = append(series, Series{Name: c.Arm.Label, Values: c.Hist.Curve()})
		}
	}
	return RenderCurves(fmt.Sprintf("%s, %s Diri(%g)", title, dataset, alpha), series)
}

// efficiency prints one federation's federated arms with their best
// accuracy, client-seconds and learning efficiency.
func (r *Result) efficiency(title, dataset string, alpha float64) string {
	tbl := NewTable(fmt.Sprintf("%s, %s Diri(%g)", title, dataset, alpha),
		"Method", "BestAcc(%)", "TrainSeconds", "Efficiency(%/s)")
	for _, c := range r.Cells {
		if c.on(dataset, alpha) && c.Arm != &centralised {
			eff, _ := c.Hist.LearningEfficiency() // 0 for a run without client-seconds
			tbl.AddRow(c.Arm.Label, Pct(c.Hist.BestAccuracy), F3(c.Hist.TotalTrainSeconds), F3(eff))
		}
	}
	return tbl.String()
}

// RunFig10a executes the fine-tuned-part ablation on the 100-class target
// under Diri(0.1), pretraining on the broad source domain.
func RunFig10a(env *Env) (*Result, error) {
	t100, err := env.Target100()
	if err != nil {
		return nil, err
	}
	return runFinetunePartAblation(env, t100, env.Suite.Source, 10100, 10)
}

// RunFig10aInDomain repeats the ablation with *in-domain* pretraining: the
// source is the target's own distribution (fresh samples). The paper defends
// its "classifier-only is best" conclusion only for source ≈ target; this
// variant realizes that premise exactly.
func RunFig10aInDomain(env *Env) (*Result, error) {
	t100, err := env.Target100()
	if err != nil {
		return nil, err
	}
	return runFinetunePartAblation(env, t100, t100, 10150, 13)
}

// runFinetunePartAblation runs EDS and RDS at every finetune part.
func runFinetunePartAblation(env *Env, target, source *data.Domain, fedSalt, runSalt int64) (*Result, error) {
	parts := []models.FinetunePart{models.FinetuneFull, models.FinetuneLarge,
		models.FinetuneModerate, models.FinetuneClassifier}
	var arms []Arm
	for _, part := range parts {
		arms = append(arms,
			Arm{Label: "FedFT-EDS/" + part.String(),
				Edit: recipe(part, selection.Entropy{Temperature: paperTemperature}, fig10Pds)},
			Arm{Label: "FedFT-RDS/" + part.String(), Edit: recipe(part, selection.Random{}, fig10Pds)})
	}
	fed := FedSpec{Target: target, Clients: env.Dims.LargeClients, Alpha: 0.1, Salt: fedSalt}
	return env.runGrid(Grid{Feds: []FedSpec{fed}, Arms: arms, Source: source, Salt: runSalt}, func(r *Result) string {
		tbl := NewTable("Fig. 10a — part of the model fine-tuned (Pds=50%, Diri(0.1))",
			"Trainable part", "FedFT-EDS", "FedFT-RDS")
		for i, part := range parts {
			tbl.AddRow(part.String(), Pct(r.Cells[2*i].Hist.BestAccuracy), Pct(r.Cells[2*i+1].Hist.BestAccuracy))
		}
		return tbl.String()
	})
}

// RunFig10b executes the heterogeneity ablation: EDS vs RDS across alpha.
func RunFig10b(env *Env) (*Result, error) {
	t100, err := env.Target100()
	if err != nil {
		return nil, err
	}
	var feds []FedSpec
	for _, alpha := range []float64{0.01, 0.05, 0.1, 0.5, 1.0} {
		feds = append(feds, FedSpec{Target: t100, Clients: env.Dims.LargeClients, Alpha: alpha,
			Salt: 10200 + int64(alpha*1000)})
	}
	arms := []Arm{{Label: "FedFT-EDS", Edit: eds(fig10Pds)}, {Label: "FedFT-RDS", Edit: rds(fig10Pds)}}
	return env.runGrid(Grid{Feds: feds, Arms: arms, Source: env.Suite.Source, Salt: 11}, func(r *Result) string {
		tbl := NewTable("Fig. 10b — data heterogeneity (Pds=50%)", "Diri(α)", "FedFT-EDS", "FedFT-RDS")
		for i, f := range feds {
			tbl.AddRow(fmt.Sprintf("%g", f.Alpha), Pct(r.Cells[2*i].Hist.BestAccuracy), Pct(r.Cells[2*i+1].Hist.BestAccuracy))
		}
		return tbl.String()
	})
}

// RunFig10c executes the hardened-softmax temperature ablation under
// Diri(0.1), against the random-selection baseline.
func RunFig10c(env *Env) (*Result, error) {
	t100, err := env.Target100()
	if err != nil {
		return nil, err
	}
	temps := []float64{0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0}
	arms := []Arm{{Label: "FedFT-RDS", Edit: rds(fig10Pds)}}
	for _, rho := range temps {
		arms = append(arms, Arm{Label: fmt.Sprintf("FedFT-EDS ρ=%g", rho),
			Edit: recipe(models.FinetuneModerate, selection.Entropy{Temperature: rho}, fig10Pds)})
	}
	fed := FedSpec{Target: t100, Clients: env.Dims.LargeClients, Alpha: 0.1, Salt: 10300}
	return env.runGrid(Grid{Feds: []FedSpec{fed}, Arms: arms, Source: env.Suite.Source, Salt: 12}, func(r *Result) string {
		tbl := NewTable("Fig. 10c — temperature in the hardened softmax (Pds=50%, Diri(0.1))",
			"ρ", "FedFT-EDS", "FedFT-RDS baseline")
		for i, rho := range temps {
			tbl.AddRow(fmt.Sprintf("%g", rho), Pct(r.Cells[i+1].Hist.BestAccuracy), Pct(r.Cells[0].Hist.BestAccuracy))
		}
		return tbl.String()
	})
}

// The ablations cover the design decisions DESIGN.md calls out beyond the
// paper's own figures, each on the 10-class target under Diri(0.1):
// sample-level vs batch-level entropy, aggregation weighting, and the
// acquisition function.

// RunAblationBatchEntropy compares the paper's sample-level entropy
// selection against batch-level entropy (FedAvg-BE style), which the paper
// argues masks per-sample utility.
func RunAblationBatchEntropy(env *Env) (*Result, error) {
	return env.runAblation("Ablation — sample-level vs batch-level entropy selection (Pds=50%, Diri(0.1))",
		Grid{Salt: 20, Arms: []Arm{
			{Label: "sample-level EDS", Edit: eds(0.5)},
			{Label: "batch-level EDS", Edit: recipe(models.FinetuneModerate,
				selection.BatchEntropy{Temperature: paperTemperature, BatchSize: 8}, 0.5)},
			{Label: "RDS", Edit: rds(0.5)},
		}}, 20100)
}

// RunAblationAggWeighting compares the paper's |D_select| aggregation
// weighting (Eq. 5) against full-local-size and uniform weighting, every
// row under one seed.
func RunAblationAggWeighting(env *Env) (*Result, error) {
	var arms []Arm
	for _, w := range []strategy.Weighting{strategy.WeightBySelected, strategy.WeightByLocalSize, strategy.WeightUniform} {
		arms = append(arms, Arm{Label: w.String(), Edit: func(c *core.Config, _ *Federation) (err error) {
			c.Strategy, err = strategy.FedAvgWith(w, nil)
			return err
		}})
	}
	return env.runAblation("Ablation — aggregation weighting p_k (FedFT-EDS 50%, Diri(0.1))",
		Grid{Arms: arms, RunName: "ablation-aggweight-%s", Seed: env.Seed + 21}, 20200)
}

// RunAblationAcquisition compares entropy against the classical margin and
// least-confidence acquisition functions under the FedFT setting.
func RunAblationAcquisition(env *Env) (*Result, error) {
	return env.runAblation("Ablation — acquisition function (Pds=50%, Diri(0.1))", Grid{Salt: 22, Arms: []Arm{
		{Label: "entropy (hardened ρ=0.1)", Edit: eds(0.5)},
		{Label: "entropy (ρ=1)", Edit: recipe(models.FinetuneModerate, selection.Entropy{Temperature: 1.0}, 0.5)},
		{Label: "margin", Edit: recipe(models.FinetuneModerate, selection.Margin{}, 0.5)},
		{Label: "least-confidence", Edit: recipe(models.FinetuneModerate, selection.LeastConfidence{}, 0.5)},
		{Label: "gradient-norm", Edit: recipe(models.FinetuneModerate, selection.GradNorm{}, 0.5)},
		{Label: "random", Edit: rds(0.5)},
	}}, 20300)
}

// runAblation runs g's arms on the small 10-class Diri(0.1) federation
// salted fedSalt, pretrained on the broad source, as one titled table.
func (e *Env) runAblation(title string, g Grid, fedSalt int64) (*Result, error) {
	g.Feds = []FedSpec{{Target: e.Suite.Target10, Clients: e.Dims.SmallClients, Alpha: 0.1, Salt: fedSalt}}
	g.Source = e.Suite.Source
	return e.runGrid(g, func(r *Result) string {
		tbl := NewTable(title, "Configuration", "BestAcc(%)", "TrainSeconds")
		for _, c := range r.Cells {
			tbl.AddRow(c.Arm.Label, Pct(c.Hist.BestAccuracy), F3(c.Hist.TotalTrainSeconds))
		}
		return tbl.String()
	})
}
