// Package models provides the model zoo used in the paper's experiments — a
// Wide ResNet (WRN-16-k) and a block-structured MLP — together with the
// machinery FedFT-EDS needs on top of a bare network: named layer groups
// (low / mid / up / classifier), partial freezing for fine-tuning, state
// (de)serialization for server↔client communication, deterministic cloning,
// and FLOP accounting split by group for the device-time model.
package models

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"fedfteds/internal/nn"
	"fedfteds/internal/tensor"
)

// Group names, ordered bottom (input side) to top (output side). They mirror
// the paper's WRN layer levels: layer1 (low), layer2 (mid), layer3 (up), and
// the classifier head.
const (
	GroupLow        = "low"
	GroupMid        = "mid"
	GroupUp         = "up"
	GroupClassifier = "classifier"
)

// groupOrder is the canonical bottom-to-top group ordering.
var groupOrder = []string{GroupLow, GroupMid, GroupUp, GroupClassifier}

// FinetunePart selects how much of the model clients train, matching the
// paper's ablation in Fig. 10a. The remainder of the model is frozen.
type FinetunePart int

const (
	// FinetuneFull trains the entire model (no frozen feature extractor).
	FinetuneFull FinetunePart = iota + 1
	// FinetuneLarge freezes only the low group.
	FinetuneLarge
	// FinetuneModerate freezes low and mid groups; this is the paper's
	// default ("fine-tuned from layer 3").
	FinetuneModerate
	// FinetuneClassifier trains only the classifier head.
	FinetuneClassifier
)

// String implements fmt.Stringer.
func (f FinetunePart) String() string {
	switch f {
	case FinetuneFull:
		return "full"
	case FinetuneLarge:
		return "large"
	case FinetuneModerate:
		return "moderate"
	case FinetuneClassifier:
		return "classifier"
	default:
		return fmt.Sprintf("FinetunePart(%d)", int(f))
	}
}

// trainableGroups returns the names of groups trained under f.
func (f FinetunePart) trainableGroups() ([]string, error) {
	switch f {
	case FinetuneFull:
		return []string{GroupLow, GroupMid, GroupUp, GroupClassifier}, nil
	case FinetuneLarge:
		return []string{GroupMid, GroupUp, GroupClassifier}, nil
	case FinetuneModerate:
		return []string{GroupUp, GroupClassifier}, nil
	case FinetuneClassifier:
		return []string{GroupClassifier}, nil
	default:
		return nil, fmt.Errorf("models: unknown finetune part %d", int(f))
	}
}

// ErrSpec reports an invalid model specification.
var ErrSpec = errors.New("models: invalid spec")

// Arch identifies a model architecture.
type Arch string

const (
	// ArchMLP is the block-structured multilayer perceptron used by the
	// experiment harness (see DESIGN.md for why it stands in for the WRN).
	ArchMLP Arch = "mlp"
	// ArchWRN is the Wide ResNet 16-k from the paper.
	ArchWRN Arch = "wrn"
)

// Spec fully determines a model so that clones can be rebuilt from scratch.
type Spec struct {
	// Arch selects the architecture.
	Arch Arch
	// InputShape is the per-sample input shape: [features] for the MLP,
	// [channels, height, width] for the WRN.
	InputShape []int
	// NumClasses is the classifier output width.
	NumClasses int
	// Hidden is the MLP hidden width (ignored by WRN).
	Hidden int
	// Depth is the WRN depth (e.g. 16); must satisfy depth = 6n+4.
	Depth int
	// WidthFactor is the WRN width multiplier k.
	WidthFactor int
	// DropoutRate is the optional dropout inside WRN blocks / between MLP
	// blocks; zero disables it.
	DropoutRate float64
	// InitSeed seeds weight initialization deterministically.
	InitSeed int64
}

// Model is a network organized into the four named groups.
type Model struct {
	spec   Spec
	groups []*nn.Sequential // parallel to groupOrder
	part   FinetunePart
	mask   []string // trainable groups, canonical order; mirrors frozen state
	// first is the group Forward enters at: 0 for a built model, p for the
	// view From(p) returns.
	first int

	// Derived once by build from the layer structure, which never changes
	// afterwards (views share them read-only): the whole state in
	// StateTensors order, the group each of its tensors belongs to, and each
	// group's forward FLOPs per sample.
	state      []*tensor.Tensor
	stateGroup []int
	flops      []int64
}

// Build constructs a model from its spec with deterministic initialization.
func Build(spec Spec) (*Model, error) {
	return build(spec, rand.New(tensor.NewSource(spec.InitSeed)))
}

// build constructs the model, drawing weight initializations from rng. A nil
// rng builds the same layers with zero weights and no draws — Clone's
// skeleton, whose state is copied in next. Dropout streams are seeded from
// the spec, not from rng, so they are identical either way.
func build(spec Spec, rng *rand.Rand) (*Model, error) {
	if spec.NumClasses <= 1 {
		return nil, fmt.Errorf("%w: NumClasses %d", ErrSpec, spec.NumClasses)
	}
	var (
		groups []*nn.Sequential
		err    error
	)
	switch spec.Arch {
	case ArchMLP:
		groups, err = buildMLP(spec, rng)
	case ArchWRN:
		groups, err = buildWRN(spec, rng)
	default:
		return nil, fmt.Errorf("%w: unknown arch %q", ErrSpec, spec.Arch)
	}
	if err != nil {
		return nil, err
	}
	m := &Model{spec: spec, groups: groups, part: FinetuneFull, mask: GroupNames()}
	// Validate the chain end to end before walking it for the FLOP counts.
	if _, err := m.OutputShape(); err != nil {
		return nil, err
	}
	in := spec.InputShape
	for i, g := range groups {
		for _, p := range g.Params() {
			m.state, m.stateGroup = append(m.state, p.W), append(m.stateGroup, i)
		}
		m.flops = append(m.flops, g.FLOPsPerSample(in))
		in, _ = g.OutputShape(in)
	}
	for i, g := range groups {
		for _, b := range g.Buffers() {
			m.state, m.stateGroup = append(m.state, b), append(m.stateGroup, i)
		}
	}
	return m, nil
}

// Spec returns the model's build specification.
func (m *Model) Spec() Spec { return m.spec }

// Group returns the named group's layer container.
func (m *Model) Group(name string) (*nn.Sequential, error) {
	for i, g := range groupOrder {
		if g == name {
			return m.groups[i], nil
		}
	}
	return nil, fmt.Errorf("models: unknown group %q", name)
}

// GroupNames returns the canonical group ordering.
func GroupNames() []string { return append([]string(nil), groupOrder...) }

// Forward runs the network on a batch: the whole of it, or, on a view, from
// the view's first group up.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, g := range m.groups[m.first:] {
		x = g.Forward(x, train)
	}
	return x
}

// FrozenDepth returns P, the number of leading frozen groups — the index of
// the lowest trainable group, or the group count when nothing trains.
// Backward stops above them, so no training step can change what they
// compute.
func (m *Model) FrozenDepth() int {
	for i, g := range m.groups {
		if !g.Frozen() {
			return i
		}
	}
	return len(m.groups)
}

// ForwardPrefix runs x through groups [0, p) only — on a view, from the
// view's first group to p — in evaluation mode, and returns the input of
// group p. When those groups are frozen the mode is immaterial (a frozen
// layer normalizes with running statistics, drops nothing, and ReLU has one
// rule) and every kernel works row by row, so
// From(p).Forward(ForwardPrefix(x, p), train) has the bits of
// Forward(x, train) however the rows are batched, and
// From(q).ForwardPrefix(ForwardPrefix(x, q), p) the bits of
// ForwardPrefix(x, p).
func (m *Model) ForwardPrefix(x *tensor.Tensor, p int) *tensor.Tensor {
	for _, g := range m.groups[m.first:p] {
		x = g.Forward(x, false)
	}
	return x
}

// From returns a view of m entered at group p: Forward takes the input of
// group p (ForwardPrefix's output) and Backward stops there. The view shares
// m's layers — weights, frozen flags, workspaces — so it is the same network,
// not a copy, and like m it serves one goroutine at a time. Everything else
// (state, masks, FLOPs, Spec) still describes the whole network; take the
// view after binding the mask it should report, it does not follow later
// SetTrainableGroups calls on m. From(0) is m itself.
func (m *Model) From(p int) *Model {
	if p == m.first {
		return m
	}
	v := *m
	v.first = p
	return &v
}

// ForwardCollectGroups runs a forward pass and returns the activation after
// each group, flattened to (N, features). Used for CKA. The returned tensors
// are snapshots (clones): layer outputs are reused workspaces, so references
// into them would be overwritten by the next forward pass.
func (m *Model) ForwardCollectGroups(x *tensor.Tensor, train bool) map[string]*tensor.Tensor {
	outs := make(map[string]*tensor.Tensor, len(m.groups))
	for i, g := range m.groups {
		x = g.Forward(x, train)
		n := x.Dim(0)
		outs[groupOrder[i]] = x.Clone().MustReshape(n, x.Len()/max(n, 1))
	}
	return outs
}

// ResetTransientRNGs rewinds every dropout layer's RNG to its build-time
// seed, restoring the exact mask streams a freshly built model would draw.
// The pooled client-replica engine calls this when rebinding a replica to a
// client so that replica reuse stays bit-identical to cloning.
func (m *Model) ResetTransientRNGs() {
	for _, g := range m.groups {
		g.VisitLayers(func(l nn.Layer) {
			if d, ok := l.(*nn.Dropout); ok {
				d.ResetRNG()
			}
		})
	}
}

// Backward backpropagates dlogits through the network, honouring frozen
// groups (backprop stops below the lowest trainable group).
func (m *Model) Backward(dlogits *tensor.Tensor) {
	lowest := m.FrozenDepth()
	dy := dlogits
	for i := len(m.groups) - 1; i >= m.first; i-- {
		need := i > lowest
		dy = m.groups[i].Backward(dy, need)
		if !need {
			return
		}
	}
}

// SetFinetunePart freezes groups according to part.
func (m *Model) SetFinetunePart(part FinetunePart) error {
	trainable, err := part.trainableGroups()
	if err != nil {
		return err
	}
	if err := m.SetTrainableGroups(trainable); err != nil {
		return err
	}
	m.part = part
	return nil
}

// SetTrainableGroups freezes everything except the named groups — the
// per-client layer-mask generalization of SetFinetunePart, accepting any
// non-empty subset of the model's groups (gaps included: Backward already
// traverses frozen groups above the lowest trainable one). The mask is
// stored in canonical group order and reported by TrainableGroupNames.
// FinetunePart keeps its last value; tier masks and finetune parts compose
// by applying the part first and the (narrower) mask second.
func (m *Model) SetTrainableGroups(names []string) error {
	set, err := groupSet(names)
	if err != nil {
		return err
	}
	mask := make([]string, 0, len(set))
	for i, name := range groupOrder {
		m.groups[i].SetFrozen(!set[name])
		if set[name] {
			mask = append(mask, name)
		}
	}
	m.mask = mask
	return nil
}

// groupSet validates names as a non-empty duplicate-free subset of the
// model's groups and returns it as a set.
func groupSet(names []string) (map[string]bool, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("models: empty group mask")
	}
	known := make(map[string]bool, len(groupOrder))
	for _, g := range groupOrder {
		known[g] = true
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		if !known[n] {
			return nil, fmt.Errorf("models: unknown group %q", n)
		}
		if set[n] {
			return nil, fmt.Errorf("models: duplicate group %q in mask", n)
		}
		set[n] = true
	}
	return set, nil
}

// FinetunePart returns the current partial-training setting.
func (m *Model) FinetunePart() FinetunePart { return m.part }

// Params returns all parameters, bottom to top.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, g := range m.groups {
		ps = append(ps, g.Params()...)
	}
	return ps
}

// TrainableParams returns parameters of non-frozen layers only.
func (m *Model) TrainableParams() []*nn.Param {
	var ps []*nn.Param
	for _, g := range m.groups {
		ps = append(ps, g.TrainableParams()...)
	}
	return ps
}

// ZeroGrads zeroes every parameter gradient.
func (m *Model) ZeroGrads() {
	for _, g := range m.groups {
		g.ZeroGrads()
	}
}

// StateTensors returns the full model state — every parameter followed by
// every buffer, in deterministic bottom-to-top order. The returned tensors
// are the live ones; callers clone if they need snapshots. The slice is the
// caller's own.
func (m *Model) StateTensors() []*tensor.Tensor {
	return append([]*tensor.Tensor(nil), m.state...)
}

// GroupStateTensors returns the live state tensors (params then buffers) of
// the named groups only, in canonical order. This is what FedFT ships over
// the wire: only the trainable upper part.
func (m *Model) GroupStateTensors(names []string) ([]*tensor.Tensor, error) {
	ts := make([]*tensor.Tensor, 0, len(m.state))
	for i, t := range m.state {
		if slices.Contains(names, groupOrder[m.stateGroup[i]]) {
			ts = append(ts, t)
		}
	}
	if len(names) > 0 && len(ts) == 0 {
		return nil, fmt.Errorf("models: no state for groups %v", names)
	}
	return ts, nil
}

// TrainableGroupNames returns the currently trainable group names in
// canonical order — the finetune part's groups, or the last mask set by
// SetTrainableGroups.
func (m *Model) TrainableGroupNames() []string {
	return append([]string(nil), m.mask...)
}

// GroupStateLayout returns, parallel to GroupStateTensors(names), the group
// each state tensor belongs to. Engines use it to align a client's masked
// state with the server's full layout during per-layer aggregation.
func (m *Model) GroupStateLayout(names []string) ([]string, error) {
	want, err := groupSet(names)
	if err != nil {
		return nil, err
	}
	var layout []string
	for _, g := range m.stateGroup {
		if want[groupOrder[g]] {
			layout = append(layout, groupOrder[g])
		}
	}
	if len(layout) == 0 {
		return nil, fmt.Errorf("models: no state for groups %v", names)
	}
	return layout, nil
}

// CopyStateFrom copies all state tensors from src into m. The models must
// share a spec.
func (m *Model) CopyStateFrom(src *Model) error {
	dst, srcTs := m.state, src.state
	if len(dst) != len(srcTs) {
		return fmt.Errorf("models: state mismatch: %d vs %d tensors", len(dst), len(srcTs))
	}
	for i := range dst {
		if err := dst[i].CopyFrom(srcTs[i]); err != nil {
			return fmt.Errorf("models: state tensor %d: %w", i, err)
		}
	}
	return nil
}

// CopyGroupStateFrom copies the named groups' state (params and buffers)
// from src into m. The groups must be architecturally identical in both
// models; other groups (typically the classifier head, when transferring a
// pretrained feature extractor across label spaces) are untouched.
func (m *Model) CopyGroupStateFrom(src *Model, groups []string) error {
	dst, err := m.GroupStateTensors(groups)
	if err != nil {
		return err
	}
	srcTs, err := src.GroupStateTensors(groups)
	if err != nil {
		return err
	}
	if len(dst) != len(srcTs) {
		return fmt.Errorf("models: group state mismatch: %d vs %d tensors", len(dst), len(srcTs))
	}
	for i := range dst {
		if err := dst[i].CopyFrom(srcTs[i]); err != nil {
			return fmt.Errorf("models: group state tensor %d: %w", i, err)
		}
	}
	return nil
}

// Clone builds a fresh model from the same spec and copies all state, without
// drawing the initialization the copy would overwrite. The clone is
// independent: training it does not affect m. The clone preserves the
// finetune part and the trainable-group mask.
func (m *Model) Clone() (*Model, error) {
	c, err := build(m.spec, nil)
	if err != nil {
		return nil, err
	}
	if err := c.CopyStateFrom(m); err != nil {
		return nil, err
	}
	if err := c.SetFinetunePart(m.part); err != nil {
		return nil, err
	}
	if err := c.SetTrainableGroups(m.mask); err != nil {
		return nil, err
	}
	return c, nil
}

// OutputShape returns the per-sample output shape.
func (m *Model) OutputShape() ([]int, error) { return m.PrefixShape(len(m.groups)) }

// PrefixShape returns the per-sample shape of ForwardPrefix(x, p): the input
// of group p.
func (m *Model) PrefixShape(p int) ([]int, error) {
	in := m.spec.InputShape
	var err error
	for i, g := range m.groups[:p] {
		in, err = g.OutputShape(in)
		if err != nil {
			return nil, fmt.Errorf("models: group %q: %w", groupOrder[i], err)
		}
	}
	return in, nil
}

// ParamCount returns the total number of parameter elements.
func (m *Model) ParamCount() int {
	var n int
	for _, p := range m.Params() {
		n += p.W.Len()
	}
	return n
}

// TrainableParamCount returns the number of trainable parameter elements.
func (m *Model) TrainableParamCount() int {
	var n int
	for _, p := range m.TrainableParams() {
		n += p.W.Len()
	}
	return n
}

// GroupFLOPs returns the forward FLOPs per sample of each group, in group
// order (a slice the caller owns), plus the total.
func (m *Model) GroupFLOPs() (perGroup []int64, total int64) {
	return append([]int64(nil), m.flops...), m.ForwardFLOPsPerSample()
}

// ForwardFLOPsPerSample returns the forward cost of the full network.
func (m *Model) ForwardFLOPsPerSample() int64 {
	var total int64
	for _, f := range m.flops {
		total += f
	}
	return total
}

// TrainFLOPsPerSample models one training step on one sample: a full forward
// pass plus a backward pass over the groups at or above the lowest trainable
// group (backward ≈ 2× forward for the traversed region). This is the
// quantity the paper's partial fine-tuning reduces.
func (m *Model) TrainFLOPsPerSample() int64 {
	return m.ForwardFLOPsPerSample() + backFLOPs(m.flops, m.FrozenDepth())
}

// TrainFLOPsPerSampleFor models a training step with the given group mask
// trainable instead of the model's current frozen state: full forward plus
// backward from the top down to the lowest masked group (the backward pass
// traverses frozen groups sitting above it). Projecting per-tier costs this
// way avoids mutating the shared global model.
func (m *Model) TrainFLOPsPerSampleFor(names []string) (int64, error) {
	want, err := groupSet(names)
	if err != nil {
		return 0, err
	}
	lowest := len(m.groups)
	for i, name := range groupOrder {
		if want[name] {
			lowest = i
			break
		}
	}
	return m.ForwardFLOPsPerSample() + backFLOPs(m.flops, lowest), nil
}

// backFLOPs models the backward cost over groups lowest..top as 2× their
// forward cost.
func backFLOPs(perGroup []int64, lowest int) int64 {
	var back int64
	for i := lowest; i < len(perGroup); i++ {
		back += 2 * perGroup[i]
	}
	return back
}
