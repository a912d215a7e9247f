package comm

import (
	"reflect"
	"strings"
	"testing"

	"fedfteds/internal/tensor"
)

// canonicalGroups is the model's canonical communicated group list for the
// fuzz harness (mirrors models.GroupNames without the import cycle).
var canonicalGroups = []string{"low", "mid", "up", "classifier"}

// decodeGroupSpec maps a fuzz bitmask onto a canonical-order subset.
func decodeGroupSpec(mask uint8) []string {
	var out []string
	for i, g := range canonicalGroups {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, g)
		}
	}
	return out
}

// FuzzGroupsSubsetRoundTrip round-trips ClientUpdate.Groups declarations
// through the envelope and validates them against the per-layer
// aggregator: every canonical subset must survive encode/decode byte-exact
// and be accepted, while unknown group names — and an empty declaration,
// the whole-state contract, arriving with no tensors — must be rejected
// after the round trip (never silently repaired).
func FuzzGroupsSubsetRoundTrip(f *testing.F) {
	f.Add(uint8(0b1111), "", 4)    // full mask
	f.Add(uint8(0b1000), "", 1)    // classifier only
	f.Add(uint8(0b1010), "", 2)    // gap mask: mid + classifier
	f.Add(uint8(0), "", 1)         // whole-state declaration, no tensors → rejected
	f.Add(uint8(0b1000), "gpu", 1) // unknown extra group → rejected

	layout := []string{"low", "mid", "mid", "up", "classifier"}
	tensorsFor := func(groups []string) []*tensor.Tensor {
		covered := make(map[string]bool, len(groups))
		for _, g := range groups {
			covered[g] = true
		}
		var ts []*tensor.Tensor
		for _, g := range layout {
			if covered[g] {
				ts = append(ts, tensor.New(2))
			}
		}
		return ts
	}

	f.Fuzz(func(t *testing.T, mask uint8, extra string, nsel int) {
		groups := decodeGroupSpec(mask & 0b1111)
		extra = strings.TrimSpace(extra)
		if extra != "" {
			groups = append(groups, extra)
		}
		if nsel <= 0 || nsel > 1<<20 {
			nsel = 1
		}
		blob, err := EncodeTensors(tensorsFor(groups))
		if err != nil {
			t.Fatal(err)
		}
		u := ClientUpdate{ClientID: 3, Round: 1, State: blob, Groups: groups, NumSelected: nsel}

		env, err := EncodeBody(MsgClientUpdate, u)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got ClientUpdate
		if err := DecodeBody(env, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		// An empty list decodes as nil; both mean "no declaration".
		if len(groups) != 0 && !reflect.DeepEqual(got.Groups, groups) {
			t.Fatalf("groups round-trip: sent %v, got %v", groups, got.Groups)
		}
		if len(groups) == 0 && len(got.Groups) != 0 {
			t.Fatalf("empty groups decoded as %v", got.Groups)
		}

		agg, err := NewMaskedStreamAggregator(nil, canonicalGroups, layout)
		if err != nil {
			t.Fatal(err)
		}
		addErr := agg.Add(got)
		valid := isCanonicalSubset(groups)
		if valid && addErr != nil {
			t.Fatalf("canonical subset %v rejected: %v", groups, addErr)
		}
		if !valid && addErr == nil {
			t.Fatalf("invalid declaration %v accepted", groups)
		}
	})
}

// isCanonicalSubset reports whether groups is a non-empty duplicate-free
// subsequence of canonicalGroups — exactly the subsets the aggregator accepts.
func isCanonicalSubset(groups []string) bool {
	if len(groups) == 0 {
		return false
	}
	i := 0
	for _, g := range groups {
		for i < len(canonicalGroups) && canonicalGroups[i] != g {
			i++
		}
		if i == len(canonicalGroups) {
			return false
		}
		i++ // consume: duplicates and out-of-order names fail the scan
	}
	return true
}

// TestGroupsRoundTripSeeds runs the fuzz seeds as a deterministic unit test
// so CI exercises them without -fuzz.
func TestGroupsRoundTripSeeds(t *testing.T) {
	for _, mask := range []uint8{0b1111, 0b1000, 0b1100, 0b1010, 0b0110} {
		groups := decodeGroupSpec(mask)
		u := ClientUpdate{ClientID: 1, Round: 2, Groups: groups, NumSelected: 5,
			State: mustEncode(t, []*tensor.Tensor{tensor.New(1)})}
		env, err := EncodeBody(MsgClientUpdate, u)
		if err != nil {
			t.Fatal(err)
		}
		var got ClientUpdate
		if err := DecodeBody(env, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Groups, groups) {
			t.Fatalf("mask %04b: sent %v, got %v", mask, groups, got.Groups)
		}
	}
}

func mustEncode(t *testing.T, ts []*tensor.Tensor) []byte {
	t.Helper()
	b, err := EncodeTensors(ts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
