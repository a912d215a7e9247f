package data

import (
	"fmt"
	"math"
	"math/rand"

	"fedfteds/internal/seeds"
	"fedfteds/internal/tensor"
)

// universeSaturation scales the tanh nonlinearity of the rendering. Values
// above 1 push a substantial share of activations into the saturated region,
// making the inverse map — the job of the feature extractor — genuinely
// nonlinear.
const universeSaturation = 1.6

// Universe is the generative structure shared across synthetic domains: one
// fixed *nonlinear* rendering from a latent class space to the observation
// space, x = tanh(sat·(W z + b)). Domains rendered through the same universe
// share low-level structure, which is what makes a feature extractor
// pretrained on one domain transfer to the others — the mechanism behind the
// paper's pretraining gains. The nonlinearity matters: with a linear
// rendering every task would be linearly separable in observation space and
// neither pretraining nor partial freezing would have any value to measure.
type Universe struct {
	// LatentDim is the dimensionality of the class-prototype space.
	LatentDim int
	// ObsDim is the dimensionality of observations.
	ObsDim int

	mix  *tensor.Tensor // (ObsDim, LatentDim)
	bias *tensor.Tensor // (ObsDim)
}

// NewUniverse builds a universe with a deterministic random rendering map.
func NewUniverse(latentDim, obsDim int, seed int64) (*Universe, error) {
	if latentDim <= 1 || obsDim < latentDim {
		return nil, fmt.Errorf("%w: universe dims latent=%d obs=%d", ErrData, latentDim, obsDim)
	}
	rng := seeds.Source(seed)
	mix := tensor.New(obsDim, latentDim)
	mix.FillNormal(rng, 0, float32(1.0/math.Sqrt(float64(latentDim))))
	bias := tensor.New(obsDim)
	bias.FillNormal(rng, 0, 0.2)
	return &Universe{LatentDim: latentDim, ObsDim: obsDim, mix: mix, bias: bias}, nil
}

// DomainSpec describes one synthetic classification domain.
type DomainSpec struct {
	// Name identifies the domain in reports (e.g. "synthc10").
	Name string
	// NumClasses is the label-space size.
	NumClasses int
	// PrototypeSpread scales class prototypes; larger means more separable.
	PrototypeSpread float64
	// LatentNoise is the within-class standard deviation in latent space.
	LatentNoise float64
	// ObsNoise is additive observation noise.
	ObsNoise float64
	// HardFraction of samples are boundary mixtures of two classes; these
	// are the genuinely informative samples entropy selection should find.
	HardFraction float64
	// LabelNoise is the fraction of samples with uniformly re-drawn labels.
	LabelNoise float64
	// NumModes gives each class this many latent modes (sub-clusters);
	// zero or one means a single mode. One mode is dominant, the rest are
	// rare: cleanly labeled and learnable but underrepresented. These rare
	// modes are the epistemically hard samples that entropy-based selection
	// is designed to find (high entropy until learned, then resolved) —
	// unlike boundary mixtures, training on them genuinely helps.
	NumModes int
	// ModeSpread is the latent distance of mode centers from the class
	// prototype.
	ModeSpread float64
	// RareModeMass is the total probability of the non-dominant modes.
	RareModeMass float64
	// Distorted applies a domain-specific per-dimension gain and shift
	// before the shared nonlinearity, modeling a far domain whose low-level
	// statistics differ (the speech-command analogue).
	Distorted bool
	// Seed determines the domain's class prototypes (and distortion).
	Seed int64
}

// Domain is a sampleable synthetic classification task.
type Domain struct {
	// Spec echoes the construction parameters.
	Spec DomainSpec

	universe   *Universe
	prototypes *tensor.Tensor // (C, LatentDim)
	modes      *tensor.Tensor // (C, NumModes, LatentDim) mode offsets; nil for single-mode
	gain       []float64      // per-obs-dim gain (distorted domains; nil otherwise)
	shift      []float64      // per-obs-dim shift
}

// NewDomain draws class prototypes for spec inside u.
func NewDomain(u *Universe, spec DomainSpec) (*Domain, error) {
	if spec.NumClasses <= 1 {
		return nil, fmt.Errorf("%w: domain %q classes %d", ErrData, spec.Name, spec.NumClasses)
	}
	if spec.PrototypeSpread <= 0 || spec.LatentNoise < 0 || spec.ObsNoise < 0 {
		return nil, fmt.Errorf("%w: domain %q noise config", ErrData, spec.Name)
	}
	if spec.HardFraction < 0 || spec.HardFraction > 1 || spec.LabelNoise < 0 || spec.LabelNoise > 1 {
		return nil, fmt.Errorf("%w: domain %q fraction config", ErrData, spec.Name)
	}
	if spec.NumModes > 1 && (spec.ModeSpread <= 0 || spec.RareModeMass < 0 || spec.RareModeMass >= 1) {
		return nil, fmt.Errorf("%w: domain %q mode config", ErrData, spec.Name)
	}
	rng := seeds.Source(spec.Seed)
	protos := tensor.New(spec.NumClasses, u.LatentDim)
	protos.FillNormal(rng, 0, float32(spec.PrototypeSpread))
	d := &Domain{Spec: spec, universe: u, prototypes: protos}
	if spec.NumModes > 1 {
		d.modes = tensor.New(spec.NumClasses, spec.NumModes, u.LatentDim)
		d.modes.FillNormal(rng, 0, float32(spec.ModeSpread))
		// The dominant mode sits at the prototype itself.
		for c := 0; c < spec.NumClasses; c++ {
			for j := 0; j < u.LatentDim; j++ {
				d.modes.Set(0, c, 0, j)
			}
		}
	}
	if spec.Distorted {
		d.gain = make([]float64, u.ObsDim)
		d.shift = make([]float64, u.ObsDim)
		for o := range d.gain {
			d.gain[o] = 0.6 + 0.8*rng.Float64() // [0.6, 1.4]
			d.shift[o] = 0.6 * rng.NormFloat64()
		}
	}
	return d, nil
}

// GenerateBalanced draws n samples with (nearly) equal class counts.
func (d *Domain) GenerateBalanced(n int, rng *rand.Rand) (*Dataset, error) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % d.Spec.NumClasses
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	return d.GenerateWithLabels(labels, rng)
}

// GenerateWithLabels draws one sample per requested label.
func (d *Domain) GenerateWithLabels(labels []int, rng *rand.Rand) (*Dataset, error) {
	n := len(labels)
	x := tensor.New(n, d.universe.ObsDim)
	y := make([]int, n)
	latent := make([]float64, d.universe.LatentDim)
	for i, c := range labels {
		if c < 0 || c >= d.Spec.NumClasses {
			return nil, fmt.Errorf("%w: label %d for domain %q", ErrData, c, d.Spec.Name)
		}
		d.sampleLatent(latent, c, rng)
		d.render(x.Data()[i*d.universe.ObsDim:(i+1)*d.universe.ObsDim], latent, rng)
		y[i] = c
		if d.Spec.LabelNoise > 0 && rng.Float64() < d.Spec.LabelNoise {
			y[i] = rng.Intn(d.Spec.NumClasses)
		}
	}
	return NewDataset(x, y, d.Spec.NumClasses)
}

// sampleLatent fills latent with a draw for class c: the class prototype
// plus noise, with a HardFraction share of samples mixed toward another
// class's prototype. The mixing weight is drawn from a *continuum* —
// λ = 1 − 0.45·u², u ~ U[0,1) — so sample difficulty is graded rather than
// clustered: most mixed samples stay nearly pure and a thin tail approaches
// the decision boundary (λ → 0.55). A graded continuum is what makes
// entropy-based selection dynamic, as in the paper: as the model learns the
// moderately-hard samples, their entropy falls and the selection moves on.
func (d *Domain) sampleLatent(latent []float64, c int, rng *rand.Rand) {
	proto := d.prototypes.Row(c).Data()
	// Mode offset: dominant mode (index 0, zero offset) with probability
	// 1−RareModeMass, otherwise one of the rare modes.
	var mode []float32
	if d.modes != nil {
		m := 0
		if rng.Float64() < d.Spec.RareModeMass {
			m = 1 + rng.Intn(d.Spec.NumModes-1)
		}
		lo := (c*d.Spec.NumModes + m) * d.universe.LatentDim
		mode = d.modes.Data()[lo : lo+d.universe.LatentDim]
	}
	if d.Spec.HardFraction > 0 && rng.Float64() < d.Spec.HardFraction {
		other := rng.Intn(d.Spec.NumClasses - 1)
		if other >= c {
			other++
		}
		op := d.prototypes.Row(other).Data()
		u := rng.Float64()
		lam := 1 - 0.45*u*u
		for j := range latent {
			latent[j] = lam*float64(proto[j]) + (1-lam)*float64(op[j]) +
				d.Spec.LatentNoise*rng.NormFloat64()
			if mode != nil {
				latent[j] += lam * float64(mode[j])
			}
		}
		return
	}
	for j := range latent {
		latent[j] = float64(proto[j]) + d.Spec.LatentNoise*rng.NormFloat64()
		if mode != nil {
			latent[j] += float64(mode[j])
		}
	}
}

// render maps a latent point to observation space through the universe's
// shared nonlinearity, with the domain's optional distortion applied first.
func (d *Domain) render(dst []float32, latent []float64, rng *rand.Rand) {
	u := d.universe
	md := u.mix.Data()
	for o := 0; o < u.ObsDim; o++ {
		var s float64
		row := md[o*u.LatentDim : (o+1)*u.LatentDim]
		for j, w := range row {
			s += float64(w) * latent[j]
		}
		s += float64(u.bias.Data()[o])
		if d.gain != nil {
			s = d.gain[o]*s + d.shift[o]
		}
		s = math.Tanh(universeSaturation * s)
		s += d.Spec.ObsNoise * rng.NormFloat64()
		dst[o] = float32(s)
	}
}

// StandardSuite bundles the four domains used throughout the experiments,
// mirroring the paper's corpora.
type StandardSuite struct {
	// Universe is the shared rendering structure.
	Universe *Universe
	// Source is the pretraining domain (Small-ImageNet analogue, broad).
	Source *Domain
	// SourceClose is the closer pretraining domain (CIFAR-100 analogue used
	// in Table I's pretraining comparison).
	SourceClose *Domain
	// Target10 is the 10-class downstream task (CIFAR-10 analogue).
	Target10 *Domain
	// Target100 is the 100-class downstream task (CIFAR-100 analogue).
	Target100 *Domain
	// Far is the cross-domain task (Google-Speech-Commands analogue).
	Far *Domain
}

// NewStandardSuite constructs the domain suite with deterministic structure
// derived from seed.
func NewStandardSuite(seed int64) (*StandardSuite, error) {
	u, err := NewUniverse(16, 64, seed)
	if err != nil {
		return nil, err
	}
	mk := func(spec DomainSpec) (*Domain, error) { return NewDomain(u, spec) }

	// The broad source has the most classes (Small-ImageNet analogue), the
	// close source fewer (CIFAR-100-as-source analogue); richer sources
	// yield better transferable features, matching Table I's ordering.
	source, err := mk(DomainSpec{
		Name: "synthnet-s", NumClasses: 40,
		PrototypeSpread: 1.0, LatentNoise: 0.70, ObsNoise: 0.35,
		HardFraction: 0.15, NumModes: 3, ModeSpread: 1.3, RareModeMass: 0.3,
		Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	sourceClose, err := mk(DomainSpec{
		Name: "synthc100-src", NumClasses: 15,
		PrototypeSpread: 1.0, LatentNoise: 0.70, ObsNoise: 0.35,
		HardFraction: 0.15, NumModes: 3, ModeSpread: 1.3, RareModeMass: 0.3,
		Seed: seed + 4,
	})
	if err != nil {
		return nil, err
	}
	t10, err := mk(DomainSpec{
		Name: "synthc10", NumClasses: 10,
		PrototypeSpread: 1.0, LatentNoise: 0.80, ObsNoise: 0.40,
		HardFraction: 0.15, NumModes: 3, ModeSpread: 1.3, RareModeMass: 0.3,
		Seed: seed + 2,
	})
	if err != nil {
		return nil, err
	}
	t100, err := mk(DomainSpec{
		Name: "synthc100", NumClasses: 100,
		PrototypeSpread: 1.0, LatentNoise: 0.85, ObsNoise: 0.40,
		HardFraction: 0.15, NumModes: 3, ModeSpread: 1.3, RareModeMass: 0.3,
		Seed: seed + 3,
	})
	if err != nil {
		return nil, err
	}
	far, err := mk(DomainSpec{
		Name: "synthgsc", NumClasses: 12,
		PrototypeSpread: 0.9, LatentNoise: 0.80, ObsNoise: 0.40,
		HardFraction: 0.15, NumModes: 3, ModeSpread: 1.3, RareModeMass: 0.3,
		Distorted: true, Seed: seed + 5,
	})
	if err != nil {
		return nil, err
	}
	return &StandardSuite{
		Universe:    u,
		Source:      source,
		SourceClose: sourceClose,
		Target10:    t10,
		Target100:   t100,
		Far:         far,
	}, nil
}
