package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/seeds"
)

func testDomain(t *testing.T) *data.Domain {
	t.Helper()
	suite, err := data.NewStandardSuite(11)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	return suite.Target10
}

func testSpec(t *testing.T, n int) Spec {
	return Spec{
		Clients: n, Seed: 42, Domain: testDomain(t),
		MinSamples: 12, MaxSamples: 30, Alpha: 0.5,
		MedianFLOPS: 1e9, Sigma: 0.35, PoolSize: 8,
	}
}

func sameClient(t *testing.T, label string, a, b interface {
	Len() int
}, ax, bx []float32, ay, by []int) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: sizes %d vs %d", label, a.Len(), b.Len())
	}
	for i := range ay {
		if ay[i] != by[i] {
			t.Fatalf("%s: label %d differs: %d vs %d", label, i, ay[i], by[i])
		}
	}
	for i := range ax {
		if ax[i] != bx[i] {
			t.Fatalf("%s: feature %d differs: %v vs %v", label, i, ax[i], bx[i])
		}
	}
}

// TestLazyMatchesEager pins the tentpole's determinism contract: a client
// materialized lazily on selection is bit-identical to the same client built
// by the eager O(N) twin.
func TestLazyMatchesEager(t *testing.T) {
	f, err := New(testSpec(t, 24))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eager, err := f.MaterializeAll()
	if err != nil {
		t.Fatalf("MaterializeAll: %v", err)
	}
	// Acquire in a scattered order, exercising the pool, not client order.
	order := []int{17, 3, 0, 23, 9, 3, 17, 11}
	got, err := f.Acquire(order, nil)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	for i, cl := range got {
		want := eager[order[i]]
		if cl.ID != want.ID {
			t.Fatalf("slot %d: ID %d, want %d", i, cl.ID, want.ID)
		}
		sameClient(t, "client", cl.Data, want.Data,
			cl.Data.X.Data(), want.Data.X.Data(), cl.Data.Y, want.Data.Y)
		if cl.Device.FLOPSRate != want.Device.FLOPSRate {
			t.Fatalf("client %d: device %v vs %v", cl.ID, cl.Device.FLOPSRate, want.Device.FLOPSRate)
		}
	}
	f.Release(got)
}

// TestRematerializeDeterministic evicts a client and re-acquires it: the
// regenerated dataset must be bit-identical to the first materialization.
func TestRematerializeDeterministic(t *testing.T) {
	spec := testSpec(t, 16)
	spec.PoolSize = 1
	f, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first, err := f.Acquire([]int{5}, nil)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	firstX := append([]float32(nil), first[0].Data.X.Data()...)
	firstY := append([]int(nil), first[0].Data.Y...)
	f.Release(first)
	// Acquiring another client evicts 5 (pool of 1).
	other, err := f.Acquire([]int{6}, nil)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	f.Release(other)
	again, err := f.Acquire([]int{5}, nil)
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	sameClient(t, "rematerialized", again[0].Data, again[0].Data, again[0].Data.X.Data(), firstX, again[0].Data.Y, firstY)
	f.Release(again)
	if st := f.Stats(); st.Materializations != 3 || st.Evictions < 2 {
		t.Errorf("stats %+v: want 3 materializations, >=2 evictions", st)
	}
}

// TestDescribeMatchesMaterialized pins the source contract the Runner's cost
// projection depends on: descriptors agree exactly with materialized clients.
func TestDescribeMatchesMaterialized(t *testing.T) {
	f, err := New(testSpec(t, 32))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for id := 0; id < f.NumClients(); id++ {
		d := f.Describe(id)
		cl, err := f.materialize(id)
		if err != nil {
			t.Fatalf("materialize %d: %v", id, err)
		}
		if d.DataSize != cl.Data.Len() {
			t.Fatalf("client %d: descriptor size %d vs materialized %d", id, d.DataSize, cl.Data.Len())
		}
		if d.Device.FLOPSRate != cl.Device.FLOPSRate {
			t.Fatalf("client %d: descriptor rate %v vs materialized %v", id, d.Device.FLOPSRate, cl.Device.FLOPSRate)
		}
		if d.DataSize < 12 || d.DataSize > 30 {
			t.Fatalf("client %d: size %d outside spec range", id, d.DataSize)
		}
	}
}

// TestPoolBounds exercises the LRU: the pool never exceeds PoolSize after
// release, pinned clients survive over-subscription, and repeat acquisitions
// hit the cache.
func TestPoolBounds(t *testing.T) {
	spec := testSpec(t, 64)
	spec.PoolSize = 8
	f, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for round := 0; round < 6; round++ {
		cohort := make([]int, 16) // cohort twice the pool size
		for i := range cohort {
			cohort[i] = (round*7 + i*3) % 64
		}
		got, err := f.Acquire(cohort, nil)
		if err != nil {
			t.Fatalf("round %d acquire: %v", round, err)
		}
		// While pinned, every cohort member must be resident even though the
		// cohort exceeds PoolSize.
		if r := f.Resident(); r < len(uniq(cohort)) {
			t.Fatalf("round %d: resident %d < pinned cohort %d", round, r, len(uniq(cohort)))
		}
		f.Release(got)
		if r := f.Resident(); r > spec.PoolSize {
			t.Fatalf("round %d: resident %d exceeds pool size %d after release", round, r, spec.PoolSize)
		}
	}
	// A cohort that fits the pool is fully retained: re-acquiring it must be
	// all hits.
	small := []int{1, 2, 3, 4}
	for pass := 0; pass < 2; pass++ {
		got, err := f.Acquire(small, nil)
		if err != nil {
			t.Fatalf("small acquire: %v", err)
		}
		f.Release(got)
	}
	st := f.Stats()
	if st.Hits < int64(len(small)) {
		t.Errorf("re-acquired retained cohort produced %d hits, want >= %d (%+v)", st.Hits, len(small), st)
	}
	if st.PeakResident > 16+spec.PoolSize {
		t.Errorf("peak resident %d implausibly high", st.PeakResident)
	}
}

// TestFailedAcquireLeavesNothingPinned: an Acquire that fails returns no
// clients, so nothing will ever release what it touched. At the parent commit
// the three positions before the bad one stayed pinned for good — resident
// beyond PoolSize with no evictable slot.
func TestFailedAcquireLeavesNothingPinned(t *testing.T) {
	spec := testSpec(t, 50)
	spec.PoolSize = 2
	f, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := f.Acquire([]int{0, 1, 2, 50}, nil); err == nil {
		t.Fatal("acquire of position 50 in a 50-client fleet succeeded")
	}
	got, err := f.Acquire([]int{3, 4}, nil)
	if err != nil {
		t.Fatalf("clean acquire: %v", err)
	}
	f.Release(got)
	if r := f.Resident(); r > spec.PoolSize {
		t.Fatalf("resident %d exceeds pool size %d after a failed acquire and a clean round", r, spec.PoolSize)
	}
}

func uniq(ids []int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// TestClusterDeterminism: same spec, same assignments; multi-cluster specs
// actually split heterogeneous sketches.
func TestClusterDeterminism(t *testing.T) {
	spec := testSpec(t, 60)
	spec.Alpha = 0.1 // strongly non-IID: sketches differ a lot
	spec.Clusters = 4
	a, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seen := map[int]bool{}
	for id := 0; id < spec.Clients; id++ {
		if a.Cluster(id) != b.Cluster(id) {
			t.Fatalf("client %d: cluster %d vs %d across identical builds", id, a.Cluster(id), b.Cluster(id))
		}
		if c := a.Cluster(id); c < 0 || c >= spec.Clusters {
			t.Fatalf("client %d: cluster %d outside [0,%d)", id, c, spec.Clusters)
		}
		seen[a.Cluster(id)] = true
	}
	if len(seen) < 2 {
		t.Errorf("clustering produced %d distinct clusters from skewed sketches, want >= 2", len(seen))
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical specs fingerprint differently: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	if d := a.Describe(0); d.Cluster != a.Cluster(0) {
		t.Errorf("Describe cluster %d vs Cluster() %d", d.Cluster, a.Cluster(0))
	}
}

// TestRegistrationIndependentOfWorkers: a fleet several registration chunks
// long registers to the same descriptors, sketches, clusters and fingerprint
// on one worker and on four, and each client's descriptor is what its own
// fresh stream draws.
func TestRegistrationIndependentOfWorkers(t *testing.T) {
	spec := testSpec(t, 5000)
	spec.Clusters = 8
	build := func(procs int) *Fleet {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f, err := New(spec)
		if err != nil {
			t.Fatalf("New at GOMAXPROCS %d: %v", procs, err)
		}
		return f
	}
	serial, parallel := build(1), build(4)
	if serial.Fingerprint() != parallel.Fingerprint() {
		t.Fatalf("fingerprint %s on one worker, %s on four", serial.Fingerprint(), parallel.Fingerprint())
	}
	props := make([]float64, serial.dim-1)
	for id := range spec.Clients {
		if a, b := serial.Describe(id), parallel.Describe(id); a != b {
			t.Fatalf("client %d: descriptor %+v on one worker, %+v on four", id, a, b)
		}
		if a, b := serial.Cluster(id), parallel.Cluster(id); a != b {
			t.Fatalf("client %d: cluster %d on one worker, %d on four", id, a, b)
		}
		size, rate := serial.drawPrefix(seeds.FleetClient(spec.Seed, id), props)
		if d := parallel.Describe(id); d.DataSize != size || d.Device.FLOPSRate != rate {
			t.Fatalf("client %d: registered size %d rate %v, its stream draws %d and %v", id, d.DataSize, d.Device.FLOPSRate, size, rate)
		}
		row := parallel.sketch[id*parallel.dim : (id+1)*parallel.dim]
		for c, p := range props {
			if row[c] != float32(p) || serial.sketch[id*serial.dim+c] != row[c] {
				t.Fatalf("client %d: sketch entry %d is %v (one worker %v), its stream draws %v", id, c, row[c], serial.sketch[id*serial.dim+c], float32(p))
			}
		}
		if e := serial.sketch[(id+1)*serial.dim-1]; e != row[len(row)-1] {
			t.Fatalf("client %d: sketch entropy %v on one worker, %v on four", id, e, row[len(row)-1])
		}
	}
}

// TestAcquireIndependentOfWorkers: the same Acquire/Release sequence — a
// position repeated within one call, pool hits, evictions, a rematerialized
// client — yields bit-identical datasets and equal pool stats on one worker
// and on four, each dataset what its client's own stream materializes.
func TestAcquireIndependentOfWorkers(t *testing.T) {
	spec := testSpec(t, 200)
	spec.PoolSize = 4
	calls := [][]int{
		{5, 9, 5, 12},          // 5 repeats within the call
		{9, 30, 31, 32, 33, 9}, // 9 hits; the misses push 5 and 12 out
		{5, 40, 41, 42, 43, 44, 45, 46, 47, 48},
	}
	run := func(procs int) ([][]*core.Client, Stats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f, err := New(spec)
		if err != nil {
			t.Fatalf("New at GOMAXPROCS %d: %v", procs, err)
		}
		var got [][]*core.Client
		for _, call := range calls {
			cls, err := f.Acquire(call, nil)
			if err != nil {
				t.Fatalf("Acquire(%v) at GOMAXPROCS %d: %v", call, procs, err)
			}
			got = append(got, cls)
			f.Release(cls)
		}
		return got, f.Stats()
	}
	serial, serialStats := run(1)
	parallel, parallelStats := run(4)
	if serialStats != parallelStats {
		t.Fatalf("stats %+v on one worker, %+v on four", serialStats, parallelStats)
	}
	if serialStats.Hits < 2 || serialStats.Evictions == 0 || serialStats.Materializations != 17 {
		t.Fatalf("stats %+v: the sequence must hit, evict and rematerialize (17 materializations)", serialStats)
	}
	ref, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for c, call := range calls {
		for i, pos := range call {
			a, b := serial[c][i], parallel[c][i]
			want, err := ref.materialize(pos)
			if err != nil {
				t.Fatal(err)
			}
			if a.ID != pos || b.ID != pos || a.Device != b.Device || a.Device != want.Device {
				t.Fatalf("call %d slot %d: clients %d/%d, want %d with the same device", c, i, a.ID, b.ID, pos)
			}
			label := fmt.Sprintf("call %d slot %d (client %d)", c, i, pos)
			sameClient(t, label, a.Data, b.Data, a.Data.X.Data(), b.Data.X.Data(), a.Data.Y, b.Data.Y)
			sameClient(t, label, a.Data, want.Data, a.Data.X.Data(), want.Data.X.Data(), a.Data.Y, want.Data.Y)
		}
	}
}

// TestFingerprintDiscriminates: any population-shaping change moves the
// fingerprint; pure capacity does not.
func TestFingerprintDiscriminates(t *testing.T) {
	base := testSpec(t, 20)
	ref, err := New(base)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	edits := map[string]func(*Spec){
		"clients": func(s *Spec) { s.Clients = 21 },
		"seed":    func(s *Spec) { s.Seed = 43 },
		"samples": func(s *Spec) { s.MaxSamples = 31 },
		"alpha":   func(s *Spec) { s.Alpha = 0.4 },
		"flops":   func(s *Spec) { s.MedianFLOPS = 2e9 },
		"cluster": func(s *Spec) { s.Clusters = 3 },
	}
	for name, edit := range edits {
		s := base
		edit(&s)
		f, err := New(s)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if f.Fingerprint() == ref.Fingerprint() {
			t.Errorf("edit %q did not change the fingerprint", name)
		}
	}
	s := base
	s.PoolSize = 99
	f, err := New(s)
	if err != nil {
		t.Fatalf("New(pool): %v", err)
	}
	if f.Fingerprint() != ref.Fingerprint() {
		t.Errorf("PoolSize changed the fingerprint: capacity must not affect results")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Clients = 0 },
		func(s *Spec) { s.Domain = nil },
		func(s *Spec) { s.MinSamples, s.MaxSamples = 10, 5 },
		func(s *Spec) { s.Alpha = -1 },
		func(s *Spec) { s.MedianFLOPS = -1 },
		func(s *Spec) { s.Clusters = 999 },
		func(s *Spec) { s.PoolSize = -1 },
	}
	for i, edit := range bad {
		s := testSpec(t, 10)
		edit(&s)
		if _, err := New(s); !errors.Is(err, ErrFleet) {
			t.Errorf("bad spec %d: err %v, want ErrFleet", i, err)
		}
	}
	if _, err := (&Fleet{spec: Spec{Clients: 4}}).Acquire([]int{9}, nil); err == nil {
		t.Errorf("out-of-range acquire not refused")
	}
}

func TestEstimateEagerBytes(t *testing.T) {
	small := EstimateEagerBytes(100, 20, 60, 64)
	big := EstimateEagerBytes(1_000_000, 20, 60, 64)
	if small <= 0 || big <= small {
		t.Fatalf("estimates not monotone: %d vs %d", small, big)
	}
	// A million clients at ~40 samples × 64 float32 dims is >10 GB — the
	// fail-fast in fedsim depends on the estimate being in that ballpark.
	if big < 10<<30 {
		t.Errorf("1M-client estimate %d bytes implausibly small", big)
	}
}
