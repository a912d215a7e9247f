package core

import (
	"fmt"
	"math"

	"fedfteds/internal/data"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/tensor"
)

// CentralConfig configures centralized (non-federated) training, used both
// for the paper's "Centralised" upper bound and for pretraining the global
// model on the source domain.
type CentralConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize for SGD.
	BatchSize int
	// LR is the learning rate.
	LR float64
	// Momentum for SGD.
	Momentum float64
	// Seed drives batch shuffling.
	Seed int64
}

// CentralHistory records centralized training progress.
type CentralHistory struct {
	// EpochLosses is the mean training loss per epoch.
	EpochLosses []float64
	// TestAccuracies is the per-epoch test accuracy (NaN when skipped).
	TestAccuracies []float64
	// BestAccuracy is the best observed test accuracy (0 without a test set).
	BestAccuracy float64
	// FinalAccuracy is the last evaluated accuracy.
	FinalAccuracy float64
}

// TrainCentralized trains m on train, evaluating on test after every epoch
// when test is non-empty.
// It honours the model's current finetune part (frozen groups stay fixed),
// which is what Pretrain relies on to train the whole network.
func TrainCentralized(m *models.Model, train, test *data.Dataset, cfg CentralConfig) (CentralHistory, error) {
	var hist CentralHistory
	if cfg.Epochs <= 0 || !(cfg.LR > 0) || math.IsInf(cfg.LR, 1) {
		return hist, fmt.Errorf("%w: central epochs=%d lr=%v", ErrConfig, cfg.Epochs, cfg.LR)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if train == nil || train.Len() == 0 {
		return hist, fmt.Errorf("%w: empty training set", ErrConfig)
	}
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: cfg.LR, Momentum: cfg.Momentum}, m.TrainableParams())
	if err != nil {
		return hist, err
	}
	iter, err := data.NewBatchIter(train, nil, cfg.BatchSize)
	if err != nil {
		return hist, err
	}
	var ls nn.LossScratch
	rng := tensor.NewRand(uint64(cfg.Seed), 0xCE27)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochLoss, err := trainEpoch(m, sgd, iter, &ls, rng)
		if err != nil {
			return hist, err
		}
		hist.EpochLosses = append(hist.EpochLosses, epochLoss/float64(train.Len()))

		acc := math.NaN()
		if test != nil && test.Len() > 0 {
			acc, err = metrics.Accuracy(m, test)
			if err != nil {
				return hist, err
			}
			if acc > hist.BestAccuracy {
				hist.BestAccuracy = acc
			}
			hist.FinalAccuracy = acc
		}
		hist.TestAccuracies = append(hist.TestAccuracies, acc)
	}
	return hist, nil
}

// Pretrain trains the full model on the source domain (paper Sec. III-B):
// it temporarily switches to full training, runs centralized SGD, and
// restores the previous finetune part.
func Pretrain(m *models.Model, source *data.Dataset, cfg CentralConfig) (CentralHistory, error) {
	prev := m.FinetunePart()
	if err := m.SetFinetunePart(models.FinetuneFull); err != nil {
		return CentralHistory{}, err
	}
	hist, err := TrainCentralized(m, source, nil, cfg)
	if restoreErr := m.SetFinetunePart(prev); restoreErr != nil && err == nil {
		err = restoreErr
	}
	return hist, err
}

// PretrainTransfer implements the paper's pretraining pipeline across label
// spaces: it builds a model for the source domain's classes, pretrains it,
// then builds the target model (fresh classifier head) and transfers the
// pretrained feature extractor (low, mid, up groups) into it.
func PretrainTransfer(targetSpec models.Spec, source *data.Dataset, cfg CentralConfig) (*models.Model, error) {
	srcSpec := targetSpec
	srcSpec.NumClasses = source.NumClasses
	srcModel, err := models.Build(srcSpec)
	if err != nil {
		return nil, fmt.Errorf("core: build source model: %w", err)
	}
	if _, err := Pretrain(srcModel, source, cfg); err != nil {
		return nil, fmt.Errorf("core: pretrain: %w", err)
	}
	target, err := models.Build(targetSpec)
	if err != nil {
		return nil, fmt.Errorf("core: build target model: %w", err)
	}
	extractor := []string{models.GroupLow, models.GroupMid, models.GroupUp}
	if err := target.CopyGroupStateFrom(srcModel, extractor); err != nil {
		return nil, fmt.Errorf("core: transfer feature extractor: %w", err)
	}
	return target, nil
}
