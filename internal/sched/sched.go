// Package sched implements server-side cohort scheduling: per round the
// server samples K clients from the full pool, and only the cohort trains.
// This is the client-level counterpart of the paper's sample-level entropy
// selection — clients already compute EDS entropy scores for their data, so
// the server can reuse the reported mean entropy as a client utility signal
// (the EntropyUtility policy). The subsystem is shared by the in-process
// simulator (core.Runner) and the distributed round engine
// (comm.RoundEngine); straggler and fault-tolerance policies then apply
// *within* the scheduled cohort.
//
// All policies are deterministic given the candidate slice and the caller's
// rng, and return cohorts as ascending client IDs.
package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// ErrSched reports an invalid scheduling configuration.
var ErrSched = errors.New("sched: invalid configuration")

// StreamTag is the rng-stream salt every scheduling call site mixes into
// its per-round seed derivation (tensor.NewRand(seed, round, StreamTag)).
// One shared constant keeps the simulator, the distributed server and the
// experiments on the same dedicated stream, so enabling a scheduler never
// perturbs the straggler or training rng streams.
const StreamTag uint64 = 0x5C4ED

// Candidate describes one client eligible for the round.
type Candidate struct {
	// ClientID is the client's federation index.
	ClientID int
	// DataSize is |D_i|, the client's local dataset size.
	DataSize int
	// ProjectedSeconds estimates the client's round time: the simulator
	// projects it from the simtime cost model, the distributed server uses
	// the client's last reported TrainSeconds (zero before first contact).
	ProjectedSeconds float64
	// Utility is the client's last reported utility — mean EDS entropy when
	// the client runs entropy selection, otherwise its train loss.
	Utility float64
	// HasUtility reports whether Utility was ever observed; policies treat
	// clients without feedback as exploration targets.
	HasUtility bool
	// Available marks the client reachable this round. Policies never
	// schedule unavailable candidates.
	Available bool
	// Tier names the client's device capability tier (see internal/device);
	// empty when the federation is untiered. Tier-aware policies use it to
	// balance cohorts across capability classes.
	Tier string
	// Cluster is the client's similarity-cluster index (see internal/fleet:
	// clients are grouped at registration by their label-distribution /
	// entropy sketches), numbered 0..C-1 (ClusterSampling indexes a table by
	// it, so it must not be negative). Zero for unclustered federations, where
	// ClusterSampling degenerates to its inner policy (single stratum).
	Cluster int
}

// Scheduler picks the per-round cohort.
type Scheduler interface {
	// Name returns the policy's CLI identifier ("uniform", "powerd", ...).
	Name() string
	// Schedule returns at most k client IDs drawn from the available
	// candidates, ascending. Implementations must be deterministic given
	// cands and rng; round lets stateful policies (churn models) evolve.
	// Schedule must not write cands: the simulator hands every round the
	// same run-long candidate table. A policy used as a wrapper's Inner is
	// handed a copy holding only the candidates still available, so its
	// cohort must depend on those alone — as every shipped stateless
	// policy's does.
	Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int
}

// Stateful is implemented by schedulers whose Schedule calls evolve internal
// state across rounds (currently only Availability's Markov chain). A run
// checkpoint captures this state so a resumed run schedules bit-identically
// to an uninterrupted one; every other shipped policy is stateless — their
// per-round draws derive entirely from the candidates and the caller's rng.
type Stateful interface {
	Scheduler
	// SnapshotState returns a deterministic serialization of the policy's
	// internal state (identical state must yield identical bytes).
	SnapshotState() ([]byte, error)
	// RestoreState replaces the internal state from a SnapshotState blob.
	RestoreState(state []byte) error
}

// clampK bounds the cohort size to [1, n] (k <= 0 means the whole pool).
func clampK(k, n int) int {
	if k <= 0 || k > n {
		return n
	}
	return k
}

// availableSet returns the indices of the available candidates, ascending.
func availableSet(cands []Candidate) []int {
	out := make([]int, 0, len(cands))
	for i := range cands {
		if cands[i].Available {
			out = append(out, i)
		}
	}
	return out
}

// picker is the call behind every shipped policy's Schedule: pick schedules
// at most k of the candidates whose indices avail lists (ascending, each one
// available), reading cands and writing nothing. Schedule is pick over the
// available candidates, and the wrappers hand their inner policy index
// subsets through it, so no Candidate is copied between policies.
type picker interface {
	pick(round int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int
}

// asPicker returns s's index-subset call. A Scheduler from outside this
// package has none, so it is handed a copy of the candidates avail lists.
func asPicker(s Scheduler) picker {
	if p, ok := s.(picker); ok {
		return p
	}
	return copied{s}
}

// copied is the one place a candidate is still copied: it runs a Scheduler
// over a sub-slice holding exactly the candidates avail lists.
type copied struct{ Scheduler }

func (c copied) pick(round int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int {
	sub := make([]Candidate, len(avail))
	for i, idx := range avail {
		sub[i] = cands[idx]
	}
	return c.Schedule(round, sub, k, rng)
}

// selectTopK returns the indices 0..n-1 of the k best items under better —
// a strict total order (better(a, b) reports item a strictly better than
// item b; break ties explicitly so the order is total) — as an unordered
// set. A bounded heap keeps this O(n log k) against the full sort's
// O(n log n), which dominates fleet-scale scheduling (N=1e5, K=1e3).
func selectTopK(n, k int, better func(a, b int) bool) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	h := make([]int, 0, k) // min-heap: h[0] is the worst kept item
	worse := func(a, b int) bool { return better(b, a) }
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worse(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			siftUp(len(h) - 1)
		} else if better(i, h[0]) {
			h[0] = i
			siftDown()
		}
	}
	return h
}

// finishCohort maps chosen candidate indices to sorted client IDs.
func finishCohort(cands []Candidate, chosen []int) []int {
	ids := make([]int, len(chosen))
	for i, idx := range chosen {
		ids[i] = cands[idx].ClientID
	}
	sort.Ints(ids)
	return ids
}

// apportion splits k cohort slots over strata of the given sizes (summing to
// total) in proportion to their size, by largest remainder with ties to the
// earlier stratum, never giving a stratum more slots than members.
func apportion(k int, sizes []int, total int) []int {
	counts := make([]int, len(sizes))
	rems := make([]float64, len(sizes))
	assigned := 0
	for i, n := range sizes {
		exact := float64(k) * float64(n) / float64(total)
		counts[i] = int(exact)
		if counts[i] > n {
			counts[i] = n
		}
		rems[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rems[order[a]] > rems[order[b]] })
	for assigned < k {
		grew := false
		for _, i := range order {
			if assigned >= k {
				break
			}
			if counts[i] < sizes[i] {
				counts[i]++
				assigned++
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	return counts
}

// UniformRandom samples the cohort uniformly without replacement — the
// classical FedAvg client sampling and the baseline every other policy is
// judged against.
type UniformRandom struct{}

var _ Scheduler = UniformRandom{}

// Name implements Scheduler.
func (UniformRandom) Name() string { return "uniform" }

// Schedule implements Scheduler.
func (u UniformRandom) Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int {
	return u.pick(round, cands, availableSet(cands), k, rng)
}

func (UniformRandom) pick(_ int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int {
	k = clampK(k, len(avail))
	chosen := permPrefix(rng, len(avail), k)
	for i, p := range chosen {
		chosen[i] = avail[p]
	}
	return finishCohort(cands, chosen)
}

// permPrefix returns rng.Perm(n)[:k] from the same draws in the same order,
// keeping only the k slots it returns. Perm's inside-out shuffle sets m[i] =
// m[j] and then m[j] = i at step i (j = Intn(i+1)), so a slot below k only
// ever takes a value from another slot below k or a step's own index: a
// step past k writes its index into slot j when j < k, and the rest of the
// n-int permutation is never read.
func permPrefix(rng *rand.Rand, n, k int) []int {
	m := make([]int, k)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		if i < k {
			m[i] = m[j]
			m[j] = i
		} else if j < k {
			m[j] = i
		}
	}
	return m
}

// SizeWeighted samples the cohort without replacement with probability
// proportional to |D_i| (FedAvg-style size-biased sampling), via the
// Efraimidis–Spirakis exponential-key reservoir: each candidate draws
// key = U^(1/w) and the k largest keys win.
type SizeWeighted struct{}

var _ Scheduler = SizeWeighted{}

// Name implements Scheduler.
func (SizeWeighted) Name() string { return "size" }

// Schedule implements Scheduler.
func (s SizeWeighted) Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int {
	return s.pick(round, cands, availableSet(cands), k, rng)
}

func (SizeWeighted) pick(_ int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int {
	k = clampK(k, len(avail))
	keys := make([]float64, len(avail))
	for i, idx := range avail {
		w := float64(cands[idx].DataSize)
		if w < 1 {
			w = 1
		}
		keys[i] = math.Pow(rng.Float64(), 1/w)
	}
	top := selectTopK(len(avail), k, func(a, b int) bool {
		if keys[a] != keys[b] {
			return keys[a] > keys[b]
		}
		return a < b
	})
	chosen := make([]int, 0, k)
	for _, i := range top {
		chosen = append(chosen, avail[i])
	}
	return finishCohort(cands, chosen)
}

// EntropyUtility exploits the clients with the highest reported utility —
// mean EDS entropy, or train loss where entropy is unavailable — with
// ε-greedy exploration: round(ε·k) cohort slots (at least one when ε > 0
// and k > 1) go to uniformly random non-exploited candidates, so clients
// the server has never heard from (or whose utility decayed) keep a
// positive selection probability every round and starved clients recover.
type EntropyUtility struct {
	// Epsilon is the exploration share of the cohort in [0, 1); 0 defaults
	// to 0.1 and negative values disable exploration (pure exploit).
	Epsilon float64
}

var _ Scheduler = EntropyUtility{}

// DefaultEpsilon is the exploration share used when Epsilon is zero.
const DefaultEpsilon = 0.1

// Name implements Scheduler.
func (EntropyUtility) Name() string { return "entropy" }

// Schedule implements Scheduler.
func (e EntropyUtility) Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int {
	return e.pick(round, cands, availableSet(cands), k, rng)
}

func (e EntropyUtility) pick(_ int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int {
	eps := e.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	k = clampK(k, len(avail))
	nExplore := int(math.Round(eps * float64(k)))
	if nExplore < 0 {
		nExplore = 0
	}
	if eps > 0 && nExplore == 0 && k > 1 {
		// Small cohorts must still explore: round(ε·k) = 0 would starve
		// every client outside the exploited set forever.
		nExplore = 1
	}
	if nExplore > k {
		nExplore = k
	}

	// Exploit: the highest-utility scored candidates, ties broken by ID.
	scored := make([]int, 0, len(avail))
	for _, idx := range avail {
		if cands[idx].HasUtility {
			scored = append(scored, idx)
		}
	}
	nExploit := k - nExplore
	if nExploit > len(scored) {
		nExploit = len(scored) // the rest of the pool is unexplored anyway
	}
	top := selectTopK(len(scored), nExploit, func(a, b int) bool {
		ua, ub := cands[scored[a]].Utility, cands[scored[b]].Utility
		if ua != ub {
			return ua > ub
		}
		return cands[scored[a]].ClientID < cands[scored[b]].ClientID
	})
	chosen := make([]int, 0, k)
	exploited := make(map[int]bool, len(top))
	for _, i := range top {
		chosen = append(chosen, scored[i])
		exploited[scored[i]] = true
	}

	// Explore: uniform over everything not exploited, never-scored clients
	// included. Unscored candidates are eligible here, which is what lets a
	// cold-started or starved client re-enter the feedback loop. avail is
	// ascending, so rest is too — the draw does not depend on the scored
	// split.
	rest := make([]int, 0, len(avail)-len(chosen))
	for _, idx := range avail {
		if !exploited[idx] {
			rest = append(rest, idx)
		}
	}
	for _, p := range permPrefix(rng, len(rest), min(k-len(chosen), len(rest))) {
		chosen = append(chosen, rest[p])
	}
	return finishCohort(cands, chosen)
}

// PowerOfD is the fast-cohort "power of d choices" policy: sample d·k
// candidates uniformly, keep the k with the smallest projected round time.
// It trades a little sampling bias for a cohort whose straggler tail is cut
// off, shrinking round wall-clock without pinning the federation to the same
// fast clients forever (the d·k pre-sample keeps rotation).
type PowerOfD struct {
	// D is the oversampling factor; 0 defaults to 2.
	D int
}

var _ Scheduler = PowerOfD{}

// DefaultD is the oversampling factor used when D is zero.
const DefaultD = 2

// Name implements Scheduler.
func (PowerOfD) Name() string { return "powerd" }

// Schedule implements Scheduler.
func (p PowerOfD) Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int {
	return p.pick(round, cands, availableSet(cands), k, rng)
}

func (p PowerOfD) pick(_ int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int {
	d := p.D
	if d <= 0 {
		d = DefaultD
	}
	k = clampK(k, len(avail))
	pool := d * k
	if pool > len(avail) {
		pool = len(avail)
	}
	sampled := permPrefix(rng, len(avail), pool)
	for i, pi := range sampled {
		sampled[i] = avail[pi]
	}
	sort.SliceStable(sampled, func(a, b int) bool {
		ta, tb := cands[sampled[a]].ProjectedSeconds, cands[sampled[b]].ProjectedSeconds
		if ta != tb {
			return ta < tb
		}
		return cands[sampled[a]].ClientID < cands[sampled[b]].ClientID
	})
	return finishCohort(cands, sampled[:k])
}

// TierBalanced stratifies the cohort across device tiers: cohort slots are
// split over the tiers present in the candidate pool proportionally to each
// tier's available population (largest remainder, ties to the
// lexicographically earlier tier name), and filled uniformly at random
// within each tier. This keeps low-capability clients — whose partial
// updates cover fewer layers — represented every round instead of being
// crowded out, so the lower groups still aggregate over enough full-tier
// clients while upper groups see the whole population. Candidates with no
// tier ("") form their own stratum, which makes the policy degenerate to
// UniformRandom on untiered federations (single stratum, uniform within).
type TierBalanced struct{}

var _ Scheduler = TierBalanced{}

// Name implements Scheduler.
func (TierBalanced) Name() string { return "tier" }

// Schedule implements Scheduler. Tiers draw from rng in ascending tier-name
// order, so the cohort is reproducible from the seed.
func (t TierBalanced) Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int {
	return t.pick(round, cands, availableSet(cands), k, rng)
}

func (TierBalanced) pick(_ int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int {
	k = clampK(k, len(avail))
	byTier := make(map[string][]int)
	for _, idx := range avail {
		t := cands[idx].Tier
		byTier[t] = append(byTier[t], idx)
	}
	tiers := make([]string, 0, len(byTier))
	for t := range byTier {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	sizes := make([]int, len(tiers))
	for i, t := range tiers {
		sizes[i] = len(byTier[t])
	}
	counts := apportion(k, sizes, len(avail))

	chosen := make([]int, 0, k)
	for i, t := range tiers {
		pool := byTier[t]
		for _, p := range permPrefix(rng, len(pool), counts[i]) {
			chosen = append(chosen, pool[p])
		}
	}
	return finishCohort(cands, chosen)
}

// ClusterSampling stratifies the cohort across similarity clusters — groups
// of clients with alike label-distribution/entropy sketches (computed at
// fleet registration and carried in Candidate.Cluster). Cohort slots are
// split over the clusters present in the available pool proportionally to
// cluster population (largest remainder, ties to the lower cluster index)
// and filled by the inner policy *within* each cluster, so every data
// modality stays represented each round no matter how skewed the pool — the
// similarity-aware cohort selection of arXiv 2403.07450 adapted to cheap
// registration-time sketches. On an unclustered pool (all Cluster zero) the
// policy is exactly one inner call over the whole pool.
//
// The inner policy must be stateless: Parse refuses "cluster:avail:…" and
// directs the caller to "avail:cluster:…", which keeps the churn state at
// the top level where run checkpoints capture it.
type ClusterSampling struct {
	// Inner fills each cluster's slots; nil defaults to UniformRandom.
	Inner Scheduler
}

var _ Scheduler = ClusterSampling{}

// Name implements Scheduler.
func (c ClusterSampling) Name() string { return "cluster:" + c.inner().Name() }

// inner returns the wrapped policy, defaulting to UniformRandom.
func (c ClusterSampling) inner() Scheduler {
	if c.Inner == nil {
		return UniformRandom{}
	}
	return c.Inner
}

// Schedule implements Scheduler. Clusters consume rng in ascending cluster
// order (one inner call per cluster), so cohorts are reproducible from the
// seed.
func (c ClusterSampling) Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int {
	return c.pick(round, cands, availableSet(cands), k, rng)
}

func (c ClusterSampling) pick(round int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int {
	k = clampK(k, len(avail))
	members, sizes := groupByCluster(cands, avail)
	if len(sizes) <= 1 {
		return asPicker(c.inner()).pick(round, cands, avail, k, rng)
	}
	counts := apportion(k, sizes, len(avail))

	// Each cluster's slots are filled by the inner policy over that
	// cluster's rows only; cohorts come back as global ClientIDs. A stateful
	// inner (constructed directly; Parse refuses it) steps its state over
	// exactly the candidates it is handed, so it gets each cluster's copy.
	inner := asPicker(c.inner())
	if _, stateful := c.inner().(Stateful); stateful {
		inner = copied{c.inner()}
	}
	ids := make([]int, 0, k)
	for i, size := range sizes {
		rows := members[:size]
		members = members[size:]
		if counts[i] > 0 {
			ids = append(ids, inner.pick(round, cands, rows, counts[i], rng)...)
		}
	}
	sort.Ints(ids)
	return ids
}

// groupByCluster lists the avail rows cluster by cluster, in ascending
// cluster order and ascending within a cluster, and returns each cluster's
// size. Clusters are numbered 0..C-1, so a counting sort by index does it in
// two passes.
func groupByCluster(cands []Candidate, avail []int) (members, sizes []int) {
	var next []int // per cluster index: its size, then its next slot
	for _, idx := range avail {
		cl := cands[idx].Cluster
		if cl >= len(next) {
			next = append(next, make([]int, cl+1-len(next))...)
		}
		next[cl]++
	}
	slot := 0
	for cl, n := range next {
		next[cl] = slot
		slot += n
		if n > 0 {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) <= 1 {
		return avail, sizes
	}
	members = make([]int, len(avail))
	for _, idx := range avail {
		cl := cands[idx].Cluster
		members[next[cl]] = idx
		next[cl]++
	}
	return members, sizes
}

// Availability composes any inner policy with client churn: each client is
// an on/off two-state Markov chain (per round, an up client goes down with
// DownProb and a down client comes back with UpProb), or replays an
// explicit trace. Unavailable clients are masked out of the candidate set
// before the inner policy runs. When churn leaves no candidate up, the
// lowest-ID candidate the caller marked available is forced up so rounds
// cannot stall — the scheduling analogue of DeadlineStraggler always
// keeping the fastest client. Candidates the caller itself marked
// unavailable are never scheduled, fallback included.
//
// The Markov chain is stateful; construct one Availability per run and do
// not share it across concurrent runs.
type Availability struct {
	// Inner is the policy applied to the surviving candidates; nil defaults
	// to UniformRandom.
	Inner Scheduler
	// DownProb is P(up → down) per round; UpProb is P(down → up). Both
	// default to 0 (no churn) and must lie in [0, 1].
	DownProb, UpProb float64
	// Trace, when non-nil, replays availability instead of the Markov chain:
	// Trace(round, clientID) reports whether the client is up.
	Trace func(round, clientID int) bool
	// TraceName identifies the replayed trace (fleet traces use their content
	// fingerprint). When set together with Trace, it is folded into Name(),
	// so a run checkpointed under one trace refuses to resume under an edited
	// trace or under the Markov chain — the same mismatch refusal every other
	// scheduler change gets.
	TraceName string

	up  map[int]bool // Markov state; clients start up
	idx []int        // the surviving rows, reused from round to round
}

var _ Scheduler = (*Availability)(nil)
var _ Stateful = (*Availability)(nil)

// Name implements Scheduler. Markov-churn wrappers are "avail:<inner>";
// trace replays with a TraceName render as "trace[<name>]:<inner>" so the
// trace's identity participates in checkpoint validation.
func (a *Availability) Name() string {
	if a.Trace != nil && a.TraceName != "" {
		return "trace[" + a.TraceName + "]:" + a.inner().Name()
	}
	return "avail:" + a.inner().Name()
}

// SnapshotState implements Stateful: the Markov up/down map serialized in
// ascending client-ID order (u64 count, then per client an i64 ID and one
// status byte), so identical churn state always yields identical bytes.
func (a *Availability) SnapshotState() ([]byte, error) {
	ids := make([]int, 0, len(a.up))
	for id := range a.up {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf := make([]byte, 0, 8+9*len(ids))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(id)))
		var b byte
		if a.up[id] {
			b = 1
		}
		buf = append(buf, b)
	}
	return buf, nil
}

// RestoreState implements Stateful, reversing SnapshotState.
func (a *Availability) RestoreState(state []byte) error {
	if len(state) < 8 {
		return fmt.Errorf("%w: availability state truncated (%d bytes)", ErrSched, len(state))
	}
	n := binary.LittleEndian.Uint64(state)
	rest := state[8:]
	// The division guard comes first: checking 9*n alone would let a count
	// near 2^64 overflow back into range and panic the decode loop below.
	if n > uint64(len(rest))/9 || uint64(len(rest)) != 9*n {
		return fmt.Errorf("%w: availability state claims %d clients in %d bytes", ErrSched, n, len(rest))
	}
	up := make(map[int]bool, n)
	for i := uint64(0); i < n; i++ {
		id := int(int64(binary.LittleEndian.Uint64(rest[9*i:])))
		switch rest[9*i+8] {
		case 0:
			up[id] = false
		case 1:
			up[id] = true
		default:
			return fmt.Errorf("%w: availability state has invalid status byte %d", ErrSched, rest[9*i+8])
		}
	}
	a.up = up
	return nil
}

// inner returns the wrapped policy, defaulting to UniformRandom.
func (a *Availability) inner() Scheduler {
	if a.Inner == nil {
		return UniformRandom{}
	}
	return a.Inner
}

// Schedule implements Scheduler. Churn transitions draw from rng before the
// inner policy does, in ascending candidate order, so a run is reproducible
// from its seed.
func (a *Availability) Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int {
	return a.pick(round, cands, availableSet(cands), k, rng)
}

// pick steps every candidate's churn state — the rows avail does not offer
// too, which stay unschedulable — and hands the inner policy the offered rows
// that are up.
func (a *Availability) pick(round int, cands []Candidate, avail []int, k int, rng *rand.Rand) []int {
	if a.up == nil {
		a.up = make(map[int]bool, len(cands))
	}
	out, next := a.idx[:0], 0
	for i := range cands {
		offered := next < len(avail) && avail[next] == i
		if offered {
			next++
		}
		id := cands[i].ClientID
		var up bool
		if a.Trace != nil {
			up = a.Trace(round, id)
		} else {
			up = true // clients start up
			if wasUp, seen := a.up[id]; seen {
				up = wasUp
			}
			if up {
				up = rng.Float64() >= a.DownProb
			} else {
				up = rng.Float64() < a.UpProb
			}
			a.up[id] = up
		}
		if offered && up {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		// Churn took the whole pool down: force the lowest-ID candidate back
		// up — but only among those the *caller* offered; a candidate the
		// caller marked unreachable must never be scheduled.
		lowest := -1
		for _, i := range avail {
			if lowest < 0 || cands[i].ClientID < cands[lowest].ClientID {
				lowest = i
			}
		}
		if lowest >= 0 {
			out = append(out, lowest)
		}
	}
	a.idx = out
	return asPicker(a.inner()).pick(round, cands, out, k, rng)
}

// PolicyNames lists the identifiers Parse accepts, in display order.
func PolicyNames() []string {
	return []string{"uniform", "size", "entropy", "powerd", "tier", "cluster:<inner>", "avail:<inner>"}
}

// Parse maps a CLI policy name to a Scheduler. The names are shared by
// `fedsim -sched` and `fedserver -sched`: "uniform", "size", "entropy",
// "powerd", "tier", "cluster:<inner>" for similarity-stratified sampling
// (e.g. "cluster:uniform"), and "avail:<inner>" for the churn wrapper (e.g.
// "avail:entropy"). The wrappers compose — "avail:cluster:uniform" is churn
// over cluster-stratified sampling — but only in that order: the stateful
// churn wrapper must stay outermost so checkpoints capture its state.
// Parameters keep their defaults (ε = 0.1, d = 2, churn DownProb = UpProb =
// 0.2); construct policies directly for other settings.
func Parse(name string) (Scheduler, error) {
	switch {
	case name == "uniform":
		return UniformRandom{}, nil
	case name == "size":
		return SizeWeighted{}, nil
	case name == "entropy":
		return EntropyUtility{}, nil
	case name == "powerd":
		return PowerOfD{}, nil
	case name == "tier":
		return TierBalanced{}, nil
	case strings.HasPrefix(name, "cluster:"):
		inner, err := Parse(strings.TrimPrefix(name, "cluster:"))
		if err != nil {
			return nil, err
		}
		if _, stateful := inner.(Stateful); stateful {
			return nil, fmt.Errorf("%w: %q nests the stateful churn wrapper inside the stateless "+
				"cluster wrapper, which would drop its state from checkpoints — compose as %q instead",
				ErrSched, name, "avail:"+name)
		}
		return ClusterSampling{Inner: inner}, nil
	case strings.HasPrefix(name, "avail:"):
		inner, err := Parse(strings.TrimPrefix(name, "avail:"))
		if err != nil {
			return nil, err
		}
		return &Availability{Inner: inner, DownProb: 0.2, UpProb: 0.2}, nil
	default:
		return nil, fmt.Errorf("%w: unknown policy %q (want one of %s)",
			ErrSched, name, strings.Join(PolicyNames(), ", "))
	}
}
