package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fedfteds/internal/tensor"
)

// contractPool is the fixed 20,000-candidate pool the scheduler contract runs
// on: about one candidate in seven unavailable, 8 clusters of uneven size, 3
// tiers, utilities on every other candidate, tied projected times, and client
// IDs that are not the candidates' indices.
func contractPool() []Candidate {
	const n = 20_000
	tiers := []string{"low", "mid", "full"}
	cands := make([]Candidate, n)
	for i := range cands {
		h := uint64(i)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
		h ^= h >> 29
		cands[i] = Candidate{
			ClientID:         3*i + 1,
			DataSize:         10 + int(h%50),
			ProjectedSeconds: float64(1 + (h>>8)%40),
			Available:        (h>>16)%7 != 3,
			Tier:             tiers[(h>>24)%3],
			Cluster:          int((h >> 32) % 8 * ((h >> 40) % 8) % 8),
		}
		if i%2 == 0 {
			cands[i].HasUtility = true
			cands[i].Utility = float64((h>>48)%1000) / 1000
		}
	}
	return cands
}

// contractTrace keeps one candidate in five down on odd rounds and another
// one in five down on rounds divisible by three.
func contractTrace(round, clientID int) bool {
	switch {
	case round%2 == 1 && clientID%5 == 0:
		return false
	case round%3 == 0 && clientID%5 == 2:
		return false
	}
	return true
}

// contractPolicies builds a fresh instance of every name the contract covers,
// in a fixed order: every Parse name over every base policy, the wrappers
// nested, and the fleet's trace replay over cluster sampling.
func contractPolicies(t *testing.T) []Scheduler {
	t.Helper()
	var names []string
	for _, base := range []string{"uniform", "size", "entropy", "powerd", "tier"} {
		names = append(names, base, "cluster:"+base, "avail:"+base)
	}
	names = append(names, "avail:cluster:uniform", "cluster:cluster:uniform", "avail:avail:uniform")
	out := make([]Scheduler, 0, len(names)+1)
	for _, name := range names {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		out = append(out, s)
	}
	return append(out, &Availability{Inner: ClusterSampling{Inner: UniformRandom{}},
		Trace: contractTrace, TraceName: "contract"})
}

// markovChurn reports whether a policy steps a Markov chain, drawing one
// value per candidate it is handed, available or not.
func markovChurn(s Scheduler) bool {
	a, ok := s.(*Availability)
	return ok && a.Trace == nil
}

// TestSchedulerContract holds every shipped policy to the contract the
// runner's run-long candidate table relies on: Schedule never writes cands;
// the cohort depends only on the available candidates (so a caller may
// leave unavailable rows out); and over 30 rounds the cohorts hash to the
// digest recorded before the policies ran over index subsets.
func TestSchedulerContract(t *testing.T) {
	pool := contractPool()
	orig := slices.Clone(pool)
	var onlyAvail []Candidate
	for _, c := range pool {
		if c.Available {
			onlyAvail = append(onlyAvail, c)
		}
	}
	h := fnv.New64a()
	var b [8]byte
	for i, s := range contractPolicies(t) {
		// A twin over the available-only copy, built the same way.
		twin := contractPolicies(t)[i]
		for round := 1; round <= 30; round++ {
			rng := tensor.NewRand(20250101, uint64(round), StreamTag)
			got := s.Schedule(round, pool, 64, rng)
			if !slices.Equal(pool, orig) {
				t.Fatalf("%s round %d: Schedule wrote its candidates", s.Name(), round)
			}
			if !markovChurn(s) {
				// Markov churn draws once per candidate it is handed, so only
				// its cohort depends on the unavailable rows too; that is why
				// the runner excludes busy rows rather than flagging them.
				want := twin.Schedule(round, onlyAvail, 64, tensor.NewRand(20250101, uint64(round), StreamTag))
				if !slices.Equal(got, want) {
					t.Fatalf("%s round %d: cohort %v over the pool, %v over its available candidates",
						s.Name(), round, got, want)
				}
			}
			fmt.Fprintf(h, "%s/%d:", s.Name(), round)
			for _, id := range got {
				binary.LittleEndian.PutUint64(b[:], uint64(id))
				h.Write(b[:])
			}
		}
	}
	// Recorded at the commit before the policies ran over index subsets.
	const want = "11defbbcb399b8c8"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("30-round cohort digest %s, want %s", got, want)
	}
}

// opaque hides a policy's index-subset call, as any Scheduler from outside
// this package lacks one.
type opaque struct{ s Scheduler }

func (o opaque) Name() string { return o.s.Name() }
func (o opaque) Schedule(round int, cands []Candidate, k int, rng *rand.Rand) []int {
	return o.s.Schedule(round, cands, k, rng)
}

// TestWrappersCopyForOutsideInner: a wrapper whose Inner comes from outside
// the package hands it a copy of the surviving candidates, and the cohort is
// the one the index-subset call gives — for each wrapper, and for a stateful
// inner under the cluster wrapper, which Parse refuses but a caller can build.
func TestWrappersCopyForOutsideInner(t *testing.T) {
	pool := contractPool()
	for _, mk := range []func(inner Scheduler) Scheduler{
		func(inner Scheduler) Scheduler { return ClusterSampling{Inner: inner} },
		func(inner Scheduler) Scheduler { return &Availability{Inner: inner, DownProb: 0.2, UpProb: 0.2} },
		func(inner Scheduler) Scheduler {
			return ClusterSampling{Inner: &Availability{Inner: inner, DownProb: 0.2, UpProb: 0.2}}
		},
	} {
		for _, inner := range []Scheduler{UniformRandom{}, EntropyUtility{}, TierBalanced{}} {
			direct, hidden := mk(inner), mk(opaque{inner})
			for round := 1; round <= 5; round++ {
				a := direct.Schedule(round, pool, 40, tensor.NewRand(7, uint64(round), StreamTag))
				b := hidden.Schedule(round, pool, 40, tensor.NewRand(7, uint64(round), StreamTag))
				if !slices.Equal(a, b) {
					t.Fatalf("%s round %d: cohort %v through the index call, %v through a copy",
						direct.Name(), round, a, b)
				}
			}
		}
	}
}

// TestTraceClusterScheduleBytes bounds what one trace-replayed cluster:uniform
// Schedule call allocates over a 100,000-candidate fleet table at k = 64,
// the fleet day's per-round scheduling call. Measured on linux/amd64: 12.03 MB
// when every call copied the table for churn, grouped clusters through a map
// and copied each cluster's candidates; 1.85 MB over index subsets, which is
// the available-index list, one cluster scatter and the uniform draws'
// permutations (the wrapper reuses its list of survivors).
func TestTraceClusterScheduleBytes(t *testing.T) {
	const n = 100_000
	cands := make([]Candidate, n)
	for i := range cands {
		cands[i] = Candidate{ClientID: i, DataSize: 10 + i%21, ProjectedSeconds: float64(i % 13),
			Available: true, Cluster: (i * 7) % 8}
	}
	diurnal := func(round, id int) bool { return !(id < n/3 && round%24 < 8) }
	s := &Availability{Inner: ClusterSampling{Inner: UniformRandom{}}, Trace: diurnal, TraceName: "diurnal"}
	s.Schedule(1, cands, 64, tensor.NewRand(1, 1, StreamTag)) // warm the wrapper's scratch
	rng := tensor.NewRand(1, 2, StreamTag)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.Schedule(2, cands, 64, rng)
	runtime.ReadMemStats(&after)
	const bound = 4 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Schedule call over %d candidates allocated %.2f MB", n, float64(got)/(1<<20))
	if got > bound {
		t.Fatalf("one Schedule call over %d candidates allocated %.2f MB, bound %.2f MB",
			n, float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}
