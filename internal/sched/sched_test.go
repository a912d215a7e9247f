package sched

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// makeCandidates builds n candidates with deterministic sizes, times and
// utilities: client i has size 10+i, projected time 1+i seconds, utility
// i/10 (scored only when i is even).
func makeCandidates(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{
			ClientID:         i,
			DataSize:         10 + i,
			ProjectedSeconds: float64(1 + i),
			Utility:          float64(i) / 10,
			HasUtility:       i%2 == 0,
			Available:        true,
		}
	}
	return out
}

// policies lists one instance of every shipped policy.
func policies() []Scheduler {
	return []Scheduler{
		UniformRandom{},
		SizeWeighted{},
		EntropyUtility{},
		PowerOfD{},
		&Availability{Inner: UniformRandom{}, DownProb: 0.3, UpProb: 0.3},
	}
}

func TestPoliciesDeterministicUnderFixedSeed(t *testing.T) {
	for _, mk := range []func() Scheduler{
		func() Scheduler { return UniformRandom{} },
		func() Scheduler { return SizeWeighted{} },
		func() Scheduler { return EntropyUtility{} },
		func() Scheduler { return PowerOfD{} },
		func() Scheduler { return &Availability{Inner: EntropyUtility{}, DownProb: 0.3, UpProb: 0.3} },
	} {
		// Two independent runs over several rounds must agree exactly:
		// stateful policies included, determinism is per-run, not per-call.
		run := func() [][]int {
			s := mk()
			var got [][]int
			for round := 1; round <= 5; round++ {
				rng := rand.New(rand.NewSource(int64(100 + round)))
				got = append(got, s.Schedule(round, makeCandidates(20), 6, rng))
			}
			return got
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: runs diverge under fixed seed:\n%v\n%v", mk().Name(), a, b)
		}
	}
}

func TestCohortShapeInvariants(t *testing.T) {
	for _, s := range policies() {
		for round := 1; round <= 4; round++ {
			cands := makeCandidates(15)
			rng := rand.New(rand.NewSource(int64(round)))
			got := s.Schedule(round, cands, 5, rng)
			if len(got) == 0 || len(got) > 5 {
				t.Fatalf("%s round %d: cohort size %d, want 1..5", s.Name(), round, len(got))
			}
			if !sort.IntsAreSorted(got) {
				t.Fatalf("%s round %d: cohort %v not ascending", s.Name(), round, got)
			}
			seen := map[int]bool{}
			for _, id := range got {
				if id < 0 || id >= 15 {
					t.Fatalf("%s round %d: unknown client %d", s.Name(), round, id)
				}
				if seen[id] {
					t.Fatalf("%s round %d: duplicate client %d in %v", s.Name(), round, id, got)
				}
				seen[id] = true
			}
		}
	}
}

func TestKClampAndFullPool(t *testing.T) {
	for _, s := range policies() {
		cands := makeCandidates(8)
		// k <= 0 and k > n both mean the whole available pool.
		for _, k := range []int{0, -1, 8, 100} {
			rng := rand.New(rand.NewSource(7))
			got := s.Schedule(1, cands, k, rng)
			// The Availability wrapper may churn clients out; everyone else
			// must return the full pool.
			if _, churned := s.(*Availability); churned {
				if len(got) == 0 {
					t.Fatalf("%s k=%d: empty cohort", s.Name(), k)
				}
				continue
			}
			if len(got) != 8 {
				t.Fatalf("%s k=%d: cohort %v, want all 8", s.Name(), k, got)
			}
		}
	}
}

func TestUnavailableCandidatesNeverScheduled(t *testing.T) {
	for _, s := range policies() {
		cands := makeCandidates(12)
		down := map[int]bool{2: true, 5: true, 9: true}
		for i := range cands {
			if down[cands[i].ClientID] {
				cands[i].Available = false
			}
		}
		rng := rand.New(rand.NewSource(3))
		for _, id := range s.Schedule(1, cands, 12, rng) {
			if down[id] {
				t.Fatalf("%s scheduled unavailable client %d", s.Name(), id)
			}
		}
	}
}

func TestSizeWeightedPrefersLargeClients(t *testing.T) {
	// One client holds ~100× the data of the rest; over many rounds it must
	// be scheduled far more often than a uniform draw would.
	cands := makeCandidates(20)
	for i := range cands {
		cands[i].DataSize = 10
	}
	cands[13].DataSize = 1000
	rng := rand.New(rand.NewSource(11))
	hits := 0
	const rounds = 200
	for round := 0; round < rounds; round++ {
		for _, id := range (SizeWeighted{}).Schedule(round, cands, 4, rng) {
			if id == 13 {
				hits++
			}
		}
	}
	// Uniform would give 4/20 = 20% ≈ 40 hits; the size bias should push
	// client 13 into nearly every cohort.
	if hits < rounds*3/4 {
		t.Fatalf("big client scheduled %d/%d rounds, want >= %d", hits, rounds, rounds*3/4)
	}
}

func TestEntropyUtilityExploitsTopUtility(t *testing.T) {
	// With ε=0, the cohort is exactly the top-k scored clients by utility.
	cands := makeCandidates(10)
	for i := range cands {
		cands[i].HasUtility = true
		cands[i].Utility = float64(i)
	}
	rng := rand.New(rand.NewSource(1))
	got := EntropyUtility{Epsilon: -1}.Schedule(1, cands, 3, rng) // negative ε: pure exploit
	want := []int{7, 8, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pure exploit cohort %v, want %v", got, want)
	}
}

func TestEntropyUtilityExplorationBounds(t *testing.T) {
	// ε=0.5, k=10: exactly round(ε·k)=5 slots must explore. The top-5
	// utilities are always in; the other 5 slots are uniform over the rest,
	// so over many rounds every starved client (no utility) gets scheduled.
	cands := makeCandidates(30)
	for i := range cands {
		cands[i].HasUtility = i < 15 // clients 15..29 have never reported
		cands[i].Utility = float64(i)
	}
	s := EntropyUtility{Epsilon: 0.5}
	rng := rand.New(rand.NewSource(5))
	starvedHits := make(map[int]int)
	for round := 0; round < 300; round++ {
		got := s.Schedule(round, cands, 10, rng)
		exploit := 0
		for _, id := range got {
			if id >= 10 && id <= 14 {
				exploit++ // top-5 utilities among scored clients
			}
			if id >= 15 {
				starvedHits[id]++
			}
		}
		if exploit != 5 {
			t.Fatalf("round %d: %d of top-5 utility clients in cohort %v, want all 5", round, exploit, got)
		}
	}
	for id := 15; id < 30; id++ {
		if starvedHits[id] == 0 {
			t.Fatalf("starved client %d never explored in 300 rounds", id)
		}
	}
}

// TestEntropyUtilitySmallCohortStillExplores pins the starvation fix: at
// K=2 with default ε, round(ε·K) is 0, but one slot must still explore —
// otherwise a client outside the initially exploited pair would never be
// scheduled, never report, and stay starved forever.
func TestEntropyUtilitySmallCohortStillExplores(t *testing.T) {
	cands := makeCandidates(3)
	for i := range cands {
		cands[i].HasUtility = i < 2 // client 2 has never reported
		cands[i].Utility = 1
	}
	rng := rand.New(rand.NewSource(8))
	s := EntropyUtility{} // default ε = 0.1
	scheduled := false
	for round := 1; round <= 50 && !scheduled; round++ {
		for _, id := range s.Schedule(round, cands, 2, rng) {
			if id == 2 {
				scheduled = true
			}
		}
	}
	if !scheduled {
		t.Fatal("starved client never explored at K=2 in 50 rounds")
	}
}

func TestEntropyUtilityFallsBackWhenUnscored(t *testing.T) {
	// No client has ever reported: the whole cohort comes from exploration
	// and still fills to k.
	cands := makeCandidates(10)
	for i := range cands {
		cands[i].HasUtility = false
	}
	rng := rand.New(rand.NewSource(2))
	got := EntropyUtility{}.Schedule(1, cands, 4, rng)
	if len(got) != 4 {
		t.Fatalf("cold-start cohort %v, want 4 clients", got)
	}
}

func TestPowerOfDPicksFastestOfSample(t *testing.T) {
	// With d large enough to cover the pool, PowerOfD degenerates to the k
	// globally fastest clients — candidates are built with time 1+i, so the
	// cohort is exactly clients 0..k-1.
	cands := makeCandidates(20)
	rng := rand.New(rand.NewSource(9))
	got := PowerOfD{D: 100}.Schedule(1, cands, 5, rng)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("full-pool powerd cohort %v, want the 5 fastest", got)
	}

	// With d=2 the cohort's mean projected time must beat a uniform draw's
	// expectation over many rounds.
	var powerSum, uniformSum float64
	const rounds = 100
	prng := rand.New(rand.NewSource(10))
	urng := rand.New(rand.NewSource(10))
	for round := 0; round < rounds; round++ {
		for _, id := range (PowerOfD{D: 2}).Schedule(round, cands, 5, prng) {
			powerSum += cands[id].ProjectedSeconds
		}
		for _, id := range (UniformRandom{}).Schedule(round, cands, 5, urng) {
			uniformSum += cands[id].ProjectedSeconds
		}
	}
	if powerSum >= uniformSum {
		t.Fatalf("powerd mean round time %v not below uniform %v", powerSum/rounds, uniformSum/rounds)
	}
}

func TestAvailabilityChurnComposition(t *testing.T) {
	// A replayed trace keeps odd clients down on odd rounds: the inner
	// policy must never see them there, and they must rejoin on even rounds.
	trace := func(round, clientID int) bool {
		return round%2 == 0 || clientID%2 == 0
	}
	s := &Availability{Inner: UniformRandom{}, Trace: trace}
	cands := makeCandidates(10)
	rng := rand.New(rand.NewSource(4))
	oddRound := s.Schedule(1, cands, 10, rng)
	for _, id := range oddRound {
		if id%2 == 1 {
			t.Fatalf("round 1 scheduled churned-out client %d in %v", id, oddRound)
		}
	}
	evenRound := s.Schedule(2, cands, 10, rng)
	if len(evenRound) != 10 {
		t.Fatalf("round 2 cohort %v, want the full rejoined pool", evenRound)
	}
}

func TestAvailabilityMarkovStatePersistsAcrossRounds(t *testing.T) {
	// With DownProb=1 and UpProb=0, every client goes down at round 1 and
	// stays down — the guarantee then forces exactly one client up.
	s := &Availability{Inner: UniformRandom{}, DownProb: 1, UpProb: 0}
	cands := makeCandidates(6)
	rng := rand.New(rand.NewSource(6))
	for round := 1; round <= 3; round++ {
		got := s.Schedule(round, cands, 6, rng)
		if !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("round %d: cohort %v, want forced lowest-ID client only", round, got)
		}
	}
}

// TestAvailabilityFallbackRespectsCallerAvailability pins the invariant
// that the all-down fallback only resurrects candidates the caller itself
// considered available: with total churn, the forced client must be the
// lowest-ID *caller-available* one, and with nothing caller-available the
// cohort is empty rather than containing an unreachable client.
func TestAvailabilityFallbackRespectsCallerAvailability(t *testing.T) {
	s := &Availability{Inner: UniformRandom{}, DownProb: 1, UpProb: 0}
	cands := makeCandidates(4)
	cands[0].Available = false // the caller knows client 0 is unreachable
	rng := rand.New(rand.NewSource(12))
	got := s.Schedule(1, cands, 4, rng)
	if !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("fallback cohort %v, want the lowest caller-available client [1]", got)
	}

	s2 := &Availability{Inner: UniformRandom{}, DownProb: 1, UpProb: 0}
	for i := range cands {
		cands[i].Available = false
	}
	if got := s2.Schedule(1, cands, 4, rng); len(got) != 0 {
		t.Fatalf("nothing caller-available, got cohort %v", got)
	}
}

func TestTrackerObserveStampAndNaN(t *testing.T) {
	tr := NewTracker()
	tr.Observe(3, 0.7, 12.5)
	tr.Observe(4, math.NaN(), 2.0) // no utility signal: stores seconds only
	tr.Observe(5, 0.2, math.NaN())

	if u, ok := tr.Utility(3); !ok || u != 0.7 {
		t.Fatalf("utility(3) = %v,%v", u, ok)
	}
	if _, ok := tr.Utility(4); ok {
		t.Fatal("NaN utility must not be stored")
	}
	if s := tr.Seconds(4); s != 2.0 {
		t.Fatalf("seconds(4) = %v", s)
	}
	if s := tr.Seconds(5); s != 0 {
		t.Fatalf("NaN seconds must not be stored, got %v", s)
	}

	cands := []Candidate{{ClientID: 3}, {ClientID: 4}, {ClientID: 5}}
	tr.Stamp(cands)
	if !cands[0].HasUtility || cands[0].Utility != 0.7 {
		t.Fatalf("stamp client 3: %+v", cands[0])
	}
	if cands[1].HasUtility {
		t.Fatalf("stamp client 4 must stay unscored: %+v", cands[1])
	}
	if !cands[2].HasUtility || cands[2].Utility != 0.2 {
		t.Fatalf("stamp client 5: %+v", cands[2])
	}
}

func TestTrackerObserveUpdateFallbackAndTimeout(t *testing.T) {
	tr := NewTracker()
	// With an entropy signal, the utility is the entropy, not the loss.
	tr.ObserveUpdate(1, 0.9, 2.5, 3.0)
	if u, ok := tr.Utility(1); !ok || u != 0.9 {
		t.Fatalf("utility(1) = %v,%v", u, ok)
	}
	// Without one (NaN), it falls back to the train loss.
	tr.ObserveUpdate(2, math.NaN(), 2.5, 3.0)
	if u, ok := tr.Utility(2); !ok || u != 2.5 {
		t.Fatalf("utility(2) = %v,%v", u, ok)
	}

	// A timeout records at least the deadline, so a hung client that never
	// reported stops looking instant to time-driven policies...
	tr.ObserveTimeout(3, 30)
	if s := tr.Seconds(3); s != 30 {
		t.Fatalf("seconds(3) = %v", s)
	}
	// ...but never shrinks a larger measured time, and a zero deadline
	// (timeouts impossible) is a no-op.
	tr.ObserveTimeout(1, 1)
	if s := tr.Seconds(1); s != 3.0 {
		t.Fatalf("seconds(1) = %v", s)
	}
	tr.ObserveTimeout(4, 0)
	if s := tr.Seconds(4); s != 0 {
		t.Fatalf("seconds(4) = %v", s)
	}
}

func TestParseRoundTripsPolicyNames(t *testing.T) {
	for _, name := range []string{"uniform", "size", "entropy", "powerd"} {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Parse(%q).Name() = %q", name, s.Name())
		}
	}
	s, err := Parse("avail:entropy")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "avail:entropy" {
		t.Fatalf("wrapper name %q", s.Name())
	}
	if _, err := Parse("fifo"); err == nil {
		t.Fatal("Parse must reject unknown policies")
	}
	if _, err := Parse("avail:fifo"); err == nil {
		t.Fatal("Parse must reject unknown inner policies")
	}
}

// TestAvailabilitySnapshotRestore pins the Stateful contract: the churn
// chain's snapshot is deterministic, restores exactly, and a restored
// instance continues scheduling identically to the original.
func TestAvailabilitySnapshotRestore(t *testing.T) {
	cands := make([]Candidate, 6)
	for i := range cands {
		cands[i] = Candidate{ClientID: i, DataSize: 10, Available: true}
	}
	orig := &Availability{Inner: UniformRandom{}, DownProb: 0.4, UpProb: 0.5}

	// Fresh (never scheduled) state snapshots and restores cleanly.
	blob, err := orig.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != 8 {
		t.Fatalf("fresh snapshot %d bytes, want 8 (count only)", len(blob))
	}

	for round := 1; round <= 3; round++ {
		orig.Schedule(round, cands, 3, rand.New(rand.NewSource(int64(round))))
	}
	blob, err = orig.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := orig.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("snapshot is not deterministic")
	}

	restored := &Availability{Inner: UniformRandom{}, DownProb: 0.4, UpProb: 0.5}
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	for round := 4; round <= 8; round++ {
		rngA := rand.New(rand.NewSource(int64(100 + round)))
		rngB := rand.New(rand.NewSource(int64(100 + round)))
		a := orig.Schedule(round, cands, 3, rngA)
		b := restored.Schedule(round, cands, 3, rngB)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: restored chain diverged: %v vs %v", round, a, b)
		}
	}
}

// TestAvailabilityRestoreRejectsCorruptState: malformed blobs are typed
// errors, never applied.
func TestAvailabilityRestoreRejectsCorruptState(t *testing.T) {
	a := &Availability{}
	for _, blob := range [][]byte{
		nil,
		{1, 2, 3},
		{1, 0, 0, 0, 0, 0, 0, 0}, // claims 1 client, no entry
		{1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9}, // invalid status byte
		{2, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1}, // count overruns
		// Count = 9^-1 mod 2^64, so 9*n overflows uint64 back to exactly
		// len(rest)=1: must be rejected by the division guard, not panic
		// the decode loop.
		{0x39, 0x8E, 0xE3, 0x38, 0x8E, 0xE3, 0x38, 0x8E, 1},
	} {
		if err := a.RestoreState(blob); !errors.Is(err, ErrSched) {
			t.Fatalf("blob %v: got %v, want ErrSched", blob, err)
		}
	}
	if a.up != nil {
		t.Fatal("corrupt state was partially applied")
	}
}

// TestTrackerExportRestore round-trips the feedback store.
func TestTrackerExportRestore(t *testing.T) {
	tr := NewTracker()
	tr.ObserveUpdate(1, 0.9, 0.5, 12)
	tr.ObserveUpdate(2, math.NaN(), 0.7, 8)
	util, seconds := tr.Export()

	// Export returns copies: mutating them must not touch the tracker.
	util[1] = -1
	if u, _ := tr.Utility(1); u != 0.9 {
		t.Fatal("Export aliases the tracker's map")
	}
	util[1] = 0.9

	tr2 := NewTracker()
	tr2.Restore(util, seconds)
	if u, ok := tr2.Utility(1); !ok || u != 0.9 {
		t.Fatalf("utility(1) = %v, %v", u, ok)
	}
	if u, ok := tr2.Utility(2); !ok || u != 0.7 {
		t.Fatalf("utility(2) = %v, %v (loss fallback lost)", u, ok)
	}
	if s := tr2.Seconds(2); s != 8 {
		t.Fatalf("seconds(2) = %v", s)
	}
	// Restoring nil clears.
	tr2.Restore(nil, nil)
	if _, ok := tr2.Utility(1); ok {
		t.Fatal("Restore(nil, nil) did not clear")
	}
}

// TestPermPrefixMatchesRandPerm: permPrefix(n, k) is rand.Perm(n)[:k] from
// the same stream, and leaves the stream where Perm does.
func TestPermPrefixMatchesRandPerm(t *testing.T) {
	for _, n := range []int{1, 2, 7, 1000, 77_000} {
		for _, k := range []int{1, n / 2, n} {
			seed := int64(n*31 + k)
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want, got := a.Perm(n)[:k], permPrefix(b, n, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: prefix %v, rand.Perm's %v", n, k, got[:min(k, 8)], want[:min(k, 8)])
			}
			if x, y := b.Int63(), a.Int63(); x != y {
				t.Fatalf("n=%d k=%d: next draw %d after the prefix, %d after rand.Perm", n, k, x, y)
			}
		}
	}
}
