package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"runtime"
	"testing"

	"fedfteds/internal/ckpt"
)

// goldenSections loads the three committed golden checkpoints (legacy
// FedAvg, strategy-bearing FedAdam, async with a buffered update) split into
// their sections: between them they carry every section but tiers, codec
// residuals and fleet.
func goldenSections(tb testing.TB) [][]ckpt.Section {
	tb.Helper()
	var out [][]ckpt.Section
	for _, path := range []string{goldenCkptFile, goldenStratCkptFile, goldenAsyncCkptFile} {
		blob, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		sections, err := ckpt.Unmarshal(blob)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, sections)
	}
	return out
}

// withSection returns base with the named section's body replaced (appended
// when base has no such section).
func withSection(base []ckpt.Section, name string, body []byte) []ckpt.Section {
	out := append([]ckpt.Section(nil), base...)
	for i := range out {
		if out[i].Name == name {
			out[i].Body = body
			return out
		}
	}
	return append(out, ckpt.Section{Name: name, Body: body})
}

// checkRunStateDecode holds one section list to the on-disk decoder's
// contract and reports whether it was accepted. A rejection is
// ckpt.ErrCorrupt (ErrVersion wraps it). Either way the decode allocates a
// bounded multiple of the input: the worst ratio is a scalar tensor, 5 bytes
// on disk against a Tensor header, its storage and its slot in the list. An
// accepted state is a fixed point: its Sections decode again, to a state
// whose Sections are the same bytes.
func checkRunStateDecode(t *testing.T, sections []ckpt.Section) bool {
	t.Helper()
	var (
		state *RunState
		err   error
	)
	var before, after runtime.MemStats
	spent := uint64(math.MaxUint64)
	for range 2 {
		runtime.ReadMemStats(&before)
		state, err = RunStateFromSections(sections)
		runtime.ReadMemStats(&after)
		spent = min(spent, after.TotalAlloc-before.TotalAlloc)
	}
	size := 0
	for _, sec := range sections {
		size += len(sec.Name) + len(sec.Body)
	}
	const factor, slack = 32, 16 << 10
	if limit := uint64(factor*size + slack); spent > limit {
		t.Fatalf("decoding %d bytes of sections allocated %d bytes, limit %d", size, spent, limit)
	}
	if err != nil {
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("rejection is not ckpt.ErrCorrupt: %v", err)
		}
		return false
	}
	first, err := state.Sections()
	if err != nil {
		t.Fatalf("accepted state does not encode: %v", err)
	}
	again, err := RunStateFromSections(first)
	if err != nil {
		t.Fatalf("re-encoded state no longer decodes: %v", err)
	}
	second, err := again.Sections()
	if err != nil {
		t.Fatal(err)
	}
	a, errA := ckpt.Marshal(first)
	b, errB := ckpt.Marshal(second)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("decode -> Sections -> decode is not a fixed point (%d vs %d bytes, %v, %v)", len(a), len(b), errA, errB)
	}
	return true
}

// FuzzRunStateFromSections drives the run-state decoder with one section of
// a golden checkpoint replaced by arbitrary bytes: no input panics,
// over-allocates, is rejected with an untyped error, or is accepted without
// being a fixed point of decode and encode (checkRunStateDecode).
func FuzzRunStateFromSections(f *testing.F) {
	golden := goldenSections(f)
	for i, sections := range golden {
		for _, sec := range sections {
			f.Add(uint8(i), sec.Name, sec.Body)
		}
	}
	// Hostile counts: a model, an opt map and an async buffer that each
	// promise far more than the body holds, and a tensor whose declared
	// volume is a gigabyte.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	f.Add(uint8(0), "model", huge)
	f.Add(uint8(0), "opt", huge)
	f.Add(uint8(2), "async", append(make([]byte, 8), huge...))
	f.Add(uint8(0), "model", []byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0x10})

	f.Fuzz(func(t *testing.T, base uint8, name string, body []byte) {
		checkRunStateDecode(t, withSection(golden[int(base)%len(golden)], name, body))
	})
}

// TestRunStateSectionsTornPrefixes is the fuzz target's deterministic CI
// companion: the golden checkpoints are accepted as they are, and with any
// one section body cut to a strict prefix they are rejected. Every cut is
// tried within edge bytes of either end of a body; the interior of the
// tensor-list bodies (model, strategy: tens of kilobytes, almost all float
// data) is sampled at a prime stride, because trying every byte of it is
// quadratic in the body and costs the race step a quarter of a minute.
func TestRunStateSectionsTornPrefixes(t *testing.T) {
	const edge, stride = 1024, 61
	for _, sections := range goldenSections(t) {
		if !checkRunStateDecode(t, sections) {
			t.Fatal("golden checkpoint rejected")
		}
		for _, sec := range sections {
			for cut := 0; cut < len(sec.Body); cut++ {
				if cut >= edge && cut < len(sec.Body)-edge && cut%stride != 0 {
					continue
				}
				_, err := RunStateFromSections(withSection(sections, sec.Name, sec.Body[:cut]))
				if !errors.Is(err, ckpt.ErrCorrupt) {
					t.Fatalf("%s section cut to %d/%d bytes: err %v, want ckpt.ErrCorrupt", sec.Name, cut, len(sec.Body), err)
				}
			}
		}
	}
}
