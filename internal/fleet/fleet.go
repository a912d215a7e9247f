// Package fleet implements the virtual client pool: a population of
// federated clients that exists as per-client seeds plus cheap descriptors
// (data size, device rate, label-distribution sketch), with datasets
// materialized lazily and deterministically when a client is selected for a
// round and returned to a bounded reuse pool afterwards. Resident memory is
// O(cohort + pool), not O(population), which is what makes million-client
// simulated days feasible in a single process.
//
// Determinism contract: every per-client draw comes from the client's own
// stream seeds.FleetClient(Spec.Seed, id), and registration and
// materialization share one prefix (label proportions, then sample count,
// then device rate) before materialization continues the same stream into
// label assignment and data generation. Acquiring a client twice — or
// acquiring it lazily versus building the whole population eagerly — yields
// bit-identical datasets, which TestLazyMatchesEager pins. Registration and
// an Acquire call's materializations run on the kernel worker pool; since no
// client reads another's stream or rows, the split across workers cannot
// change a bit.
package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/partition"
	"fedfteds/internal/seeds"
	"fedfteds/internal/simtime"
	"fedfteds/internal/tensor"
)

// ErrFleet reports an invalid fleet configuration or operation.
var ErrFleet = fmt.Errorf("fleet: invalid configuration")

// Spec describes a virtual client population. Every field except PoolSize
// shapes the derived clients and therefore the fleet's Fingerprint; PoolSize
// is a capacity knob that must not (and does not) affect results.
type Spec struct {
	// Clients is the population size N.
	Clients int
	// Seed roots every per-client stream (seeds.FleetClient(Seed, id)).
	Seed int64
	// Domain is the synthetic task clients draw their local data from.
	Domain *data.Domain
	// MinSamples/MaxSamples bound the per-client local dataset size; the
	// size is uniform on [MinSamples, MaxSamples]. Defaults 20/60.
	MinSamples, MaxSamples int
	// Alpha is the Dirichlet concentration of each client's label
	// proportions — the paper's non-IID knob (small alpha, skewed clients).
	// Default 0.5.
	Alpha float64
	// MedianFLOPS and Sigma shape the lognormal device-rate distribution,
	// matching simtime.NewHeterogeneousDevices. Defaults 1e9 and 0.35.
	MedianFLOPS, Sigma float64
	// Clusters is the similarity-cluster count for the cluster:<inner>
	// scheduling policy; 0 or 1 disables clustering.
	Clusters int
	// PoolSize bounds how many materialized clients stay resident between
	// rounds (an LRU reuse pool). The cohort itself may transiently exceed
	// it — pinned clients are never evicted. Default 256.
	PoolSize int
}

func (s Spec) withDefaults() Spec {
	if s.MinSamples == 0 && s.MaxSamples == 0 {
		s.MinSamples, s.MaxSamples = 20, 60
	}
	if s.Alpha == 0 {
		s.Alpha = 0.5
	}
	if s.MedianFLOPS == 0 {
		s.MedianFLOPS = 1e9
	}
	if s.Sigma == 0 {
		s.Sigma = 0.35
	}
	if s.PoolSize == 0 {
		s.PoolSize = 256
	}
	return s
}

func (s Spec) validate() error {
	switch {
	case s.Clients <= 0 || s.Clients > 1<<31-1:
		return fmt.Errorf("%w: %d clients", ErrFleet, s.Clients)
	case s.Domain == nil:
		return fmt.Errorf("%w: nil domain", ErrFleet)
	case s.MinSamples < 1 || s.MaxSamples < s.MinSamples:
		return fmt.Errorf("%w: sample range [%d, %d]", ErrFleet, s.MinSamples, s.MaxSamples)
	case s.Alpha <= 0:
		return fmt.Errorf("%w: dirichlet alpha %v", ErrFleet, s.Alpha)
	case s.MedianFLOPS <= 0 || s.Sigma < 0:
		return fmt.Errorf("%w: device distribution median %v sigma %v", ErrFleet, s.MedianFLOPS, s.Sigma)
	case s.Clusters < 0 || s.Clusters > s.Clients:
		return fmt.Errorf("%w: %d clusters for %d clients", ErrFleet, s.Clusters, s.Clients)
	case s.PoolSize < 1:
		return fmt.Errorf("%w: pool size %d", ErrFleet, s.PoolSize)
	}
	return nil
}

// Stats counts the pool's materialization traffic.
type Stats struct {
	// Materializations is how many times a client's dataset was generated.
	Materializations int64
	// Hits is how many acquisitions were served from the resident pool.
	Hits int64
	// Evictions is how many resident clients were dropped to honor PoolSize.
	Evictions int64
	// PeakResident is the largest number of simultaneously materialized
	// clients (pinned cohort plus pool).
	PeakResident int
}

// entry is one resident materialized client.
type entry struct {
	cl      *core.Client
	pins    int
	lastUse uint64
}

// Fleet is a virtual client population implementing core.ClientSource.
// Descriptors for all N clients are derived at construction (O(N) small
// scalars); datasets exist only while acquired or cached in the bounded pool.
type Fleet struct {
	spec Spec
	// Per-client descriptors, fixed at registration.
	sizes  []int32
	flops  []float64
	sketch []float32 // N × sketchDim label-distribution sketches
	dim    int
	// clusters holds the k-means assignment per client (nil unclustered);
	// clusterHash fingerprints the assignment.
	clusters    []int32
	clusterHash uint64
	fingerprint string

	mu    sync.Mutex
	pool  map[int]*entry
	clock uint64
	stats Stats
}

var _ core.ClientSource = (*Fleet)(nil)

// registerChunk is the fewest clients one pool task registers: a few
// milliseconds of draws, so small fleets register inline.
const registerChunk = 1024

// New registers a fleet: one parallel pass deriving every client's descriptor
// from its seed stream, then (when Spec.Clusters > 1) a deterministic k-means
// over the label-distribution sketches. No datasets are generated.
func New(spec Spec) (*Fleet, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	n := spec.Clients
	classes := spec.Domain.Spec.NumClasses
	f := &Fleet{
		spec:   spec,
		sizes:  make([]int32, n),
		flops:  make([]float64, n),
		sketch: make([]float32, n*(classes+1)),
		dim:    classes + 1,
		pool:   make(map[int]*entry),
	}
	// A chunk reseeds one stream per client rather than allocating one each.
	tensor.ParallelFor(n, registerChunk, func(lo, hi int) {
		rng := seeds.Source(0)
		props := make([]float64, classes)
		for id := lo; id < hi; id++ {
			rng.Seed(seeds.FleetClientSeed(spec.Seed, id))
			size, rate := f.drawPrefix(rng, props)
			f.sizes[id] = int32(size)
			f.flops[id] = rate
			row := f.sketch[id*f.dim : (id+1)*f.dim]
			// The product is an explicit conversion, as in
			// partition.GammaSample, so no target fuses it into the
			// subtraction.
			var h float64
			for c, p := range props {
				row[c] = float32(p)
				if p > 0 {
					h -= float64(p * math.Log(p))
				}
			}
			// Normalized label entropy: 1 for a uniform client, → 0 for a
			// single-class one. It gives the sketch a "how non-IID" axis on
			// top of "which classes".
			row[classes] = float32(h / math.Log(float64(classes)))
		}
	})
	if spec.Clusters > 1 {
		f.clusters = kmeans(f.sketch, n, f.dim, spec.Clusters)
		h := fnv.New64a()
		var b [4]byte
		for _, c := range f.clusters {
			b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
			h.Write(b[:])
		}
		f.clusterHash = h.Sum64()
	}
	f.fingerprint = f.computeFingerprint()
	return f, nil
}

// drawPrefix makes the descriptor draws — label proportions, local sample
// count, device rate, in that fixed order — from a client's stream. It is the
// shared prefix of registration and materialization: both call it on a fresh
// seeds.FleetClient stream, so the dataset draws that follow during
// materialization always see the same stream position.
func (f *Fleet) drawPrefix(rng *rand.Rand, props []float64) (size int, flopsRate float64) {
	dirichlet(rng, f.spec.Alpha, props)
	size = f.spec.MinSamples + rng.Intn(f.spec.MaxSamples-f.spec.MinSamples+1)
	flopsRate = f.spec.MedianFLOPS * math.Exp(f.spec.Sigma*rng.NormFloat64())
	return size, flopsRate
}

// dirichlet fills props with a Dirichlet(alpha) draw via per-class Gamma
// variates (Marsaglia–Tsang), normalized.
func dirichlet(rng *rand.Rand, alpha float64, props []float64) {
	var sum float64
	for i := range props {
		g := partition.GammaSample(alpha, rng)
		props[i] = g
		sum += g
	}
	if sum <= 0 {
		// All draws underflowed (tiny alpha): fall back to uniform rather
		// than divide by zero. Deterministic, since it depends only on draws.
		for i := range props {
			props[i] = 1 / float64(len(props))
		}
		return
	}
	for i := range props {
		props[i] /= sum
	}
}

// categorical returns the class index for u ∈ [0, 1) under props.
func categorical(props []float64, u float64) int {
	var cum float64
	for c, p := range props {
		cum += p
		if u < cum {
			return c
		}
	}
	return len(props) - 1 // float roundoff: cum summed to slightly under 1
}

// materialize derives client id's full state: the descriptor prefix redrawn
// from the same stream, then the local labels ~ Categorical(props), then the
// dataset through the domain's generator on the same stream.
func (f *Fleet) materialize(id int) (*core.Client, error) {
	rng := seeds.FleetClient(f.spec.Seed, id)
	props := make([]float64, f.spec.Domain.Spec.NumClasses)
	size, rate := f.drawPrefix(rng, props)
	labels := make([]int, size)
	for i := range labels {
		labels[i] = categorical(props, rng.Float64())
	}
	ds, err := f.spec.Domain.GenerateWithLabels(labels, rng)
	if err != nil {
		return nil, fmt.Errorf("fleet: materializing client %d: %w", id, err)
	}
	return &core.Client{ID: id, Data: ds, Device: simtime.Device{FLOPSRate: rate}, Cluster: f.Cluster(id)}, nil
}

// NumClients implements core.ClientSource.
func (f *Fleet) NumClients() int { return f.spec.Clients }

// Describe implements core.ClientSource from the registration descriptors —
// no dataset is touched.
func (f *Fleet) Describe(pos int) core.ClientDesc {
	d := core.ClientDesc{
		DataSize: int(f.sizes[pos]),
		Device:   simtime.Device{FLOPSRate: f.flops[pos]},
	}
	if f.clusters != nil {
		d.Cluster = int(f.clusters[pos])
	}
	return d
}

// Cluster returns client pos's similarity-cluster index (0 unclustered).
func (f *Fleet) Cluster(pos int) int {
	if f.clusters == nil {
		return 0
	}
	return int(f.clusters[pos])
}

// Acquire implements core.ClientSource: each position is served from the
// resident pool when cached, materialized otherwise, and pinned until the
// matching Release. The call's misses are materialized first, on the kernel
// worker pool — each client reads only its own stream — and the pool's
// bookkeeping (clock, pins, stats, eviction) then runs in call order, so the
// outcome does not depend on the worker count.
func (f *Fleet) Acquire(positions []int, dst []*core.Client) ([]*core.Client, error) {
	dst = dst[:0]
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, pos := range positions {
		if pos < 0 || pos >= f.spec.Clients {
			return nil, fmt.Errorf("fleet: acquire position %d outside population of %d", pos, f.spec.Clients)
		}
	}
	made, errs := f.materializeMisses(positions)
	for i, pos := range positions {
		f.clock++
		e, ok := f.pool[pos]
		if ok {
			f.stats.Hits++
		} else {
			if errs[i] != nil {
				// The caller gets no clients, so it will release none: unpin
				// what this call pinned, or those entries could never be
				// evicted again.
				for _, pinned := range dst {
					f.pool[pinned.ID].pins--
				}
				f.evictLocked()
				return nil, errs[i]
			}
			e = &entry{cl: made[i]}
			f.pool[pos] = e
			f.stats.Materializations++
			if len(f.pool) > f.stats.PeakResident {
				f.stats.PeakResident = len(f.pool)
			}
		}
		e.pins++
		e.lastUse = f.clock
		dst = append(dst, e.cl)
	}
	f.evictLocked()
	return dst, nil
}

// materializeMisses materializes, on the kernel worker pool, the first
// occurrence of each position of an Acquire call that is not resident;
// made[i] and errs[i] belong to positions[i]. A repeat is served from the pool
// once the in-order walk has inserted its first occurrence. Called with f.mu
// held; only the walk writes the pool.
func (f *Fleet) materializeMisses(positions []int) (made []*core.Client, errs []error) {
	made = make([]*core.Client, len(positions))
	errs = make([]error, len(positions))
	var misses []int
	listed := make(map[int]bool, len(positions))
	for i, pos := range positions {
		if _, resident := f.pool[pos]; !resident && !listed[pos] {
			listed[pos] = true
			misses = append(misses, i)
		}
	}
	tensor.ParallelFor(len(misses), 1, func(lo, hi int) {
		for _, i := range misses[lo:hi] {
			made[i], errs[i] = f.materialize(positions[i])
		}
	})
	return made, errs
}

// Release implements core.ClientSource: unpin the clients and shrink the pool
// back under PoolSize, evicting the least recently used unpinned entries.
func (f *Fleet) Release(clients []*core.Client) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, cl := range clients {
		if cl == nil {
			continue
		}
		if e, ok := f.pool[cl.ID]; ok && e.pins > 0 {
			e.pins--
			f.clock++
			e.lastUse = f.clock
		}
	}
	f.evictLocked()
}

// evictLocked drops least-recently-used unpinned entries until the pool fits
// PoolSize. Pinned entries never leave, so a cohort larger than the pool
// over-subscribes transiently instead of invalidating live clients.
func (f *Fleet) evictLocked() {
	for len(f.pool) > f.spec.PoolSize {
		victim, oldest := -1, uint64(math.MaxUint64)
		for id, e := range f.pool {
			if e.pins > 0 {
				continue
			}
			// Strict ordering on (lastUse, id) keeps eviction deterministic
			// under Go's randomized map iteration.
			if e.lastUse < oldest || (e.lastUse == oldest && id < victim) {
				victim, oldest = id, e.lastUse
			}
		}
		if victim < 0 {
			return // everything is pinned
		}
		delete(f.pool, victim)
		f.stats.Evictions++
	}
}

// Stats returns a snapshot of the pool counters.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Resident returns how many materialized clients are currently held.
func (f *Fleet) Resident() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pool)
}

// Fingerprint implements core.ClientSource: a stable hash of everything that
// shapes the derived population — seeds, sizes, the domain's identity, the
// device distribution and the clustering — but not PoolSize, which is pure
// capacity. Checkpoints record it and refuse restores under an edited fleet.
func (f *Fleet) Fingerprint() string { return f.fingerprint }

func (f *Fleet) computeFingerprint() string {
	h := fnv.New64a()
	ds := f.spec.Domain.Spec
	fmt.Fprintf(h, "fleet/v1;n=%d;seed=%d;domain=%s/%d/%d;samples=%d-%d;alpha=%v;flops=%v/%v;clusters=%d;chash=%#x",
		f.spec.Clients, f.spec.Seed, ds.Name, ds.Seed, ds.NumClasses,
		f.spec.MinSamples, f.spec.MaxSamples, f.spec.Alpha,
		f.spec.MedianFLOPS, f.spec.Sigma, f.spec.Clusters, f.clusterHash)
	return fmt.Sprintf("%016x", h.Sum64())
}

// MaterializeAll eagerly builds every client — the fleet's O(N)-memory twin,
// used by equivalence tests and small comparison runs. It bypasses the pool.
func (f *Fleet) MaterializeAll() ([]*core.Client, error) {
	out := make([]*core.Client, f.spec.Clients)
	for id := range out {
		cl, err := f.materialize(id)
		if err != nil {
			return nil, err
		}
		out[id] = cl
	}
	return out, nil
}

// EstimateEagerBytes approximates the resident memory an eager build of this
// population would need: per client, the dataset's feature tensor
// (float32 × obsDim × samples), its labels, and fixed object overhead. It is
// the capacity guard fedsim consults before attempting an eager -clients run.
func EstimateEagerBytes(clients, minSamples, maxSamples, obsDim int) int64 {
	const perClientOverhead = 512 // Client + Dataset + tensor headers, slices
	avg := (int64(minSamples) + int64(maxSamples) + 1) / 2
	perSample := int64(obsDim)*4 + 8 // float32 features + int label
	return int64(clients) * (avg*perSample + perClientOverhead)
}
