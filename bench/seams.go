package main

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// boundary is the pass-through straggler policy every Runner workload runs
// under, traced or not: core.Runner.Run calls Complete exactly once per
// round, before any client trains, which gives the harness its round
// boundaries (one time.Now and one getrusage per round) without touching the
// program. It also counts the operations a round requests and the samples
// they will train on, and starts the meter when the warm-up rounds are over.
type boundary struct {
	inner  simtime.StragglerPolicy
	warmup int
	// sizeOf is the local dataset size of a pool position; selected maps it
	// to the number of samples the workload's selector keeps.
	sizeOf   func(pos int) int
	selected func(localSize int) int
	epochs   int

	tr    *tracer
	round *atomic.Int32

	stamps       []time.Time     // Complete entry, one per round
	cpu          []time.Duration // process CPU at the same instants
	allocs       allocMeter
	attempted    int   // client updates requested in measured rounds
	trainSamples int64 // selected samples x local epochs in measured rounds
}

func (b *boundary) Complete(ids []int, secs []float64, rng *rand.Rand) []int {
	b.stamps = append(b.stamps, time.Now())
	b.cpu = append(b.cpu, processCPU())
	r := len(b.stamps)
	b.round.Store(int32(r))
	if r == b.warmup+1 {
		b.allocs.start()
	}
	t := b.tr.now()
	chosen := b.inner.Complete(ids, secs, rng)
	b.tr.add("simtime.complete", t, r, -1)
	if r > b.warmup {
		b.attempted += len(chosen)
		for _, pos := range chosen {
			b.trainSamples += int64(b.selected(b.sizeOf(pos)) * b.epochs)
		}
	}
	return chosen
}

// selectedCount mirrors the selectors' ceil(fraction*N) target.
func selectedCount(fraction float64) func(int) int {
	return func(n int) int {
		k := int(math.Ceil(fraction * float64(n)))
		return max(1, min(k, n))
	}
}

// The decorators below are passed through core.Config in the traced run only.
// Each forwards every optional interface the wrapped value has, so the
// program takes the same branches it takes without them.

type tracedSelector struct {
	selection.Selector
	tr    *tracer
	round *atomic.Int32
}

func (s tracedSelector) Select(m *models.Model, ds *data.Dataset, f float64, rng *rand.Rand) ([]int, error) {
	t := s.tr.now()
	idx, err := s.Selector.Select(m, ds, f, rng)
	s.tr.add("selection.select", t, int(s.round.Load()), -1)
	return idx, err
}

type tracedUtilitySelector struct{ tracedSelector }

func (s tracedUtilitySelector) SelectWithUtility(m *models.Model, ds *data.Dataset, f float64, rng *rand.Rand) ([]int, float64, error) {
	t := s.tr.now()
	idx, u, err := s.Selector.(selection.UtilityScorer).SelectWithUtility(m, ds, f, rng)
	s.tr.add("selection.select", t, int(s.round.Load()), -1)
	return idx, u, err
}

func traceSelector(inner selection.Selector, tr *tracer, round *atomic.Int32) selection.Selector {
	ts := tracedSelector{Selector: inner, tr: tr, round: round}
	if _, ok := inner.(selection.UtilityScorer); ok {
		return tracedUtilitySelector{ts}
	}
	return ts
}

type tracedScheduler struct {
	sched.Scheduler
	tr         *tracer
	round      *atomic.Int32
	candidates *atomic.Int64
}

func (s tracedScheduler) Schedule(round int, cands []sched.Candidate, k int, rng *rand.Rand) []int {
	// Schedule is the first seam call of a scheduled round.
	s.round.Store(int32(round))
	s.candidates.Add(int64(len(cands)))
	t := s.tr.now()
	out := s.Scheduler.Schedule(round, cands, k, rng)
	s.tr.add("sched.schedule", t, round, -1)
	return out
}

type tracedStatefulScheduler struct{ tracedScheduler }

func (s tracedStatefulScheduler) SnapshotState() ([]byte, error) {
	return s.Scheduler.(sched.Stateful).SnapshotState()
}

func (s tracedStatefulScheduler) RestoreState(b []byte) error {
	return s.Scheduler.(sched.Stateful).RestoreState(b)
}

func traceScheduler(inner sched.Scheduler, tr *tracer, round *atomic.Int32, candidates *atomic.Int64) sched.Scheduler {
	ts := tracedScheduler{Scheduler: inner, tr: tr, round: round, candidates: candidates}
	if _, ok := inner.(sched.Stateful); ok {
		return tracedStatefulScheduler{ts}
	}
	return ts
}

// tracedStrategy wraps the shipped *strategy.Composite, which implements
// strategy.Stateful and strategy.MaskProvider; embedding the concrete type
// forwards both.
type tracedStrategy struct {
	*strategy.Composite
	tr    *tracer
	round *atomic.Int32
}

func (s tracedStrategy) WeighUpdates(ups []strategy.Update, w []float64) error {
	t := s.tr.now()
	err := s.Composite.WeighUpdates(ups, w)
	s.tr.add("strategy.weigh", t, int(s.round.Load()), -1)
	return err
}

func (s tracedStrategy) ApplyAggregate(global, avg []*tensor.Tensor) error {
	t := s.tr.now()
	err := s.Composite.ApplyAggregate(global, avg)
	s.tr.add("strategy.apply", t, int(s.round.Load()), -1)
	return err
}

type tracedSource struct {
	core.ClientSource
	tr    *tracer
	round *atomic.Int32
}

func (s tracedSource) Acquire(positions []int, dst []*core.Client) ([]*core.Client, error) {
	t := s.tr.now()
	out, err := s.ClientSource.Acquire(positions, dst)
	s.tr.add("fleet.acquire", t, int(s.round.Load()), -1)
	return out, err
}

func (s tracedSource) Release(clients []*core.Client) {
	t := s.tr.now()
	s.ClientSource.Release(clients)
	s.tr.add("fleet.release", t, int(s.round.Load()), -1)
}
