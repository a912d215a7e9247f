//go:build !race

// Under the race detector sync.Pool drops a quarter of what is put back, so
// the kernel pool's completion WaitGroups are reallocated and an exact
// allocation count means nothing; the plain test step runs this file.

package comm

import "testing"

// TestWarmStreamAggregatorAddZeroAllocs: once an aggregator has folded one
// update, the next Add — echo check, decode into the retained scratch, shape
// and value checks, fold — allocates nothing, whatever the session's codec.
// The echo check asks the codec for its name on every Add, so a name built
// per call would show here.
func TestWarmStreamAggregatorAddZeroAllocs(t *testing.T) {
	ref, ts := pinnedCodecInput()
	for _, spec := range []string{"identity", "float16", "int8", "topk:0.05"} {
		t.Run(spec, func(t *testing.T) {
			codec, err := ParseCodec(spec)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := codec.Encode(ref, ts, 0x5eed)
			if err != nil {
				t.Fatal(err)
			}
			agg := NewStreamAggregator()
			agg.SetCodec(codec, ref)
			u := ClientUpdate{ClientID: 1, Round: 1, State: blob, NumSelected: 4, Codec: WireName(codec)}
			if err := agg.Add(u); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := agg.Add(u); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm Add under %s allocates %v times per update, want 0", codec.Name(), allocs)
			}
		})
	}
}
