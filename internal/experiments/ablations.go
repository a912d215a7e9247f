package experiments

import (
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

// The ablation experiments cover the design decisions DESIGN.md calls out
// beyond the paper's own figures: sample-level vs batch-level entropy,
// aggregation weighting, and the acquisition function.

// AblationRow is one named configuration's outcome.
type AblationRow struct {
	// Name identifies the configuration.
	Name string
	// BestAccuracy is the best test accuracy.
	BestAccuracy float64
	// TrainSeconds is the total simulated client time.
	TrainSeconds float64
}

// AblationResult is a list of compared configurations.
type AblationResult struct {
	// Title names the ablation.
	Title string
	// Rows holds the outcomes in definition order.
	Rows []AblationRow
}

// Get returns the row with the given name, or false.
func (r *AblationResult) Get(name string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return AblationRow{}, false
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	tbl := NewTable(r.Title, "Configuration", "BestAcc(%)", "TrainSeconds")
	for _, row := range r.Rows {
		tbl.AddRow(row.Name, Pct(row.BestAccuracy), F3(row.TrainSeconds))
	}
	return tbl.String()
}

// RunAblationBatchEntropy compares the paper's sample-level entropy
// selection against batch-level entropy (FedAvg-BE style), which the paper
// argues masks per-sample utility.
func RunAblationBatchEntropy(env *Env) (*AblationResult, error) {
	target := env.Suite.Target10
	fed, err := env.BuildFederation(target, env.Dims.SmallClients, 0.1, 20100)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation — sample-level vs batch-level entropy selection (Pds=50%, Diri(0.1))"}
	configs := []Method{
		{Name: "sample-level EDS", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.Entropy{Temperature: paperTemperature}, Fraction: 0.5},
		{Name: "batch-level EDS", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.BatchEntropy{Temperature: paperTemperature, BatchSize: 8}, Fraction: 0.5},
		{Name: "RDS", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.Random{}, Fraction: 0.5},
	}
	for _, m := range configs {
		hist, err := env.RunMethod(m, fed, target, env.Suite.Source, 20)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: m.Name, BestAccuracy: hist.BestAccuracy, TrainSeconds: hist.TotalTrainSeconds,
		})
	}
	return res, nil
}

// RunAblationAggWeighting compares the paper's |D_select| aggregation
// weighting (Eq. 5) against full-local-size and uniform weighting.
func RunAblationAggWeighting(env *Env) (*AblationResult, error) {
	target := env.Suite.Target10
	fed, err := env.BuildFederation(target, env.Dims.SmallClients, 0.1, 20200)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation — aggregation weighting p_k (FedFT-EDS 50%, Diri(0.1))"}
	for _, w := range []strategy.Weighting{strategy.WeightBySelected, strategy.WeightByLocalSize, strategy.WeightUniform} {
		global, err := env.PretrainedModel(target, env.Suite.Source)
		if err != nil {
			return nil, err
		}
		cfg := env.baseConfig(env.Seed + 21)
		if cfg.Strategy, err = strategy.FedAvgWith(w, nil); err != nil {
			return nil, err
		}
		hist, err := env.RunFL("ablation-aggweight-"+w.String(), cfg, global, fed.Clients, fed.Test)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: w.String(), BestAccuracy: hist.BestAccuracy, TrainSeconds: hist.TotalTrainSeconds,
		})
	}
	return res, nil
}

// RunAblationAcquisition compares entropy against the classical margin and
// least-confidence acquisition functions under the FedFT setting.
func RunAblationAcquisition(env *Env) (*AblationResult, error) {
	target := env.Suite.Target10
	fed, err := env.BuildFederation(target, env.Dims.SmallClients, 0.1, 20300)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation — acquisition function (Pds=50%, Diri(0.1))"}
	configs := []Method{
		{Name: "entropy (hardened ρ=0.1)", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.Entropy{Temperature: paperTemperature}, Fraction: 0.5},
		{Name: "entropy (ρ=1)", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.Entropy{Temperature: 1.0}, Fraction: 0.5},
		{Name: "margin", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.Margin{}, Fraction: 0.5},
		{Name: "least-confidence", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.LeastConfidence{}, Fraction: 0.5},
		{Name: "gradient-norm", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.GradNorm{}, Fraction: 0.5},
		{Name: "random", Pretrained: true, Part: models.FinetuneModerate,
			Selector: selection.Random{}, Fraction: 0.5},
	}
	for _, m := range configs {
		hist, err := env.RunMethod(m, fed, target, env.Suite.Source, 22)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: m.Name, BestAccuracy: hist.BestAccuracy, TrainSeconds: hist.TotalTrainSeconds,
		})
	}
	return res, nil
}
