package comm

import (
	"errors"
	"math"
	"testing"

	"fedfteds/internal/tensor"
)

// vec builds a rank-1 tensor holding vals.
func vec(vals ...float32) *tensor.Tensor {
	ts := tensor.New(len(vals))
	for i, v := range vals {
		ts.Set(v, i)
	}
	return ts
}

// aggUpdate encodes ts — the tensors of the declared groups only (every
// group for an empty declaration) — into a round-1 update.
func aggUpdate(t *testing.T, id, nsel int, groups []string, ts ...*tensor.Tensor) ClientUpdate {
	t.Helper()
	blob, err := EncodeTensors(ts)
	if err != nil {
		t.Fatal(err)
	}
	return ClientUpdate{ClientID: id, Round: 1, State: blob, Groups: groups, NumSelected: nsel}
}

// The fixture layout: group "up" owns two tensors, "classifier" one.
var (
	aggGroups = []string{"up", "classifier"}
	aggLayout = []string{"up", "up", "classifier"}
)

// aggBroadcast is the broadcast state of the fixture layout.
func aggBroadcast() []*tensor.Tensor {
	return []*tensor.Tensor{vec(1, 1), vec(2, 2), vec(3, 3)}
}

// newLayoutAggregator builds the fixture's per-layer aggregator with the
// broadcast state set.
func newLayoutAggregator(t *testing.T) (*StreamAggregator, []*tensor.Tensor) {
	t.Helper()
	agg, err := NewMaskedStreamAggregator(nil, aggGroups, aggLayout)
	if err != nil {
		t.Fatal(err)
	}
	bcast := aggBroadcast()
	agg.SetCodec(nil, bcast)
	return agg, bcast
}

// wholeAggregator is the whole-state aggregator under weigh: no layout.
func wholeAggregator(weigh WeightFunc) *StreamAggregator {
	agg, err := NewMaskedStreamAggregator(weigh, nil, nil)
	if err != nil {
		panic(err)
	}
	return agg
}

// TestStreamAggregatorAverages folds each row's updates into one aggregator
// and checks the first element of every averaged tensor.
func TestStreamAggregatorAverages(t *testing.T) {
	uniform := func(ClientUpdate) (float64, error) { return 1, nil }
	bySelected := func(u ClientUpdate) (float64, error) { return float64(u.NumSelected), nil }
	whole := func(weigh WeightFunc) func(*testing.T) *StreamAggregator {
		return func(*testing.T) *StreamAggregator { return wholeAggregator(weigh) }
	}
	layout := func(t *testing.T) *StreamAggregator {
		agg, _ := newLayoutAggregator(t)
		return agg
	}
	for _, tt := range []struct {
		name string
		agg  func(*testing.T) *StreamAggregator
		ups  func(*testing.T) []ClientUpdate
		want []float32
	}{
		{"whole state, selected-size weighting", whole(nil), func(t *testing.T) []ClientUpdate {
			return []ClientUpdate{aggUpdate(t, 0, 1, nil, vec(0)), aggUpdate(t, 1, 3, nil, vec(1))}
		}, []float32{0.75}},
		{"whole state, WeightFunc echoing NumSelected", whole(bySelected), func(t *testing.T) []ClientUpdate {
			return []ClientUpdate{aggUpdate(t, 0, 1, nil, vec(0)), aggUpdate(t, 1, 3, nil, vec(1))}
		}, []float32{0.75}},
		{"whole state, uniform WeightFunc", whole(uniform), func(t *testing.T) []ClientUpdate {
			return []ClientUpdate{aggUpdate(t, 0, 1, nil, vec(0)), aggUpdate(t, 1, 3, nil, vec(1))}
		}, []float32{0.5}},
		// Client 0 (weight 1) trained both groups, client 1 (weight 3) only
		// the classifier: "up" averages over client 0 alone, the classifier
		// over both, (1·30 + 3·70) / 4 = 60.
		{"per-layer average", layout, func(t *testing.T) []ClientUpdate {
			return []ClientUpdate{
				aggUpdate(t, 0, 1, aggGroups, vec(10, 10), vec(20, 20), vec(30, 30)),
				aggUpdate(t, 1, 3, []string{"classifier"}, vec(70, 70)),
			}
		}, []float32{10, 20, 60}},
		// An empty declaration is the whole-state contract on a layout
		// aggregator too.
		{"empty declaration covers every group", layout, func(t *testing.T) []ClientUpdate {
			return []ClientUpdate{
				aggUpdate(t, 0, 1, nil, vec(10, 10), vec(20, 20), vec(30, 30)),
				aggUpdate(t, 1, 3, []string{"classifier"}, vec(70, 70)),
			}
		}, []float32{10, 20, 60}},
		// Nobody covered "up": both tensors fall back to the broadcast.
		{"uncovered group falls back to the broadcast", layout, func(t *testing.T) []ClientUpdate {
			return []ClientUpdate{aggUpdate(t, 1, 2, []string{"classifier"}, vec(5, 5))}
		}, []float32{1, 2, 5}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			agg := tt.agg(t)
			ups := tt.ups(t)
			for _, u := range ups {
				if err := agg.Add(u); err != nil {
					t.Fatal(err)
				}
			}
			if agg.Updates() != len(ups) {
				t.Fatalf("Updates() = %d, want %d", agg.Updates(), len(ups))
			}
			out, err := agg.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(tt.want) {
				t.Fatalf("%d tensors, want %d", len(out), len(tt.want))
			}
			for i, want := range tt.want {
				if got := out[i].At(0); math.Abs(float64(got-want)) > 1e-5 {
					t.Fatalf("tensor %d = %v, want %v", i, got, want)
				}
			}
		})
	}
}

func TestStreamAggregatorFallbackIsACopy(t *testing.T) {
	agg, bcast := newLayoutAggregator(t)
	if err := agg.Add(aggUpdate(t, 1, 2, []string{"classifier"}, vec(5, 5))); err != nil {
		t.Fatal(err)
	}
	out, err := agg.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] == bcast[0] {
		t.Fatal("fallback aliases the broadcast tensor instead of copying it")
	}
}

// TestMaskedUpdateShipsZeroBytesForMaskedLayer pins the wire contract the
// tiers sweep reports: a group outside the client's mask contributes zero
// bytes to ClientUpdate.State — the blob is exactly the count prefix plus
// the covered groups' tensors.
func TestMaskedUpdateShipsZeroBytesForMaskedLayer(t *testing.T) {
	up1 := tensor.New(64, 64)
	up2 := tensor.New(64)
	head := tensor.New(10, 64)

	fullBlob, err := EncodeTensors([]*tensor.Tensor{up1, up2, head})
	if err != nil {
		t.Fatal(err)
	}
	maskedBlob, err := EncodeTensors([]*tensor.Tensor{head})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + head.EncodedSize(); len(maskedBlob) != want {
		t.Fatalf("masked blob is %d bytes, want exactly %d (count prefix + head)", len(maskedBlob), want)
	}
	saved := len(fullBlob) - len(maskedBlob)
	if want := up1.EncodedSize() + up2.EncodedSize(); saved != want {
		t.Fatalf("masking the up group saved %d bytes, want %d", saved, want)
	}
}

// TestStreamAggregatorRejectsAtomically: every row folds one good update,
// then a bad one that must be refused without touching any sum — the
// aggregate afterwards is the good update alone.
func TestStreamAggregatorRejectsAtomically(t *testing.T) {
	boom := errors.New("boom")
	picky := func(u ClientUpdate) (float64, error) {
		switch u.ClientID {
		case 1:
			return 0, boom
		case 2:
			return 0, nil // non-positive weight
		}
		return 1, nil
	}
	whole := func(weigh WeightFunc) func(*testing.T) *StreamAggregator {
		return func(*testing.T) *StreamAggregator { return wholeAggregator(weigh) }
	}
	layout := func(t *testing.T) *StreamAggregator {
		agg, _ := newLayoutAggregator(t)
		return agg
	}
	head := []string{"classifier"}
	zeroSelected := func(u ClientUpdate) ClientUpdate {
		u.NumSelected = 0
		return u
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	// The int8 rows fold deltas against a broadcast whose last tensor is
	// (9, 9): an update equal to it decodes exactly, and an Inf weight leaves
	// the quantiser as NaN or Inf whatever the rounding does.
	int8Ref := func() []*tensor.Tensor { return []*tensor.Tensor{vec(1, 1), vec(2, 2), vec(9, 9)} }
	int8Layout := func(t *testing.T) *StreamAggregator {
		agg, _ := newLayoutAggregator(t)
		agg.SetCodec(int8Codec{}, int8Ref())
		return agg
	}
	int8Update := func(t *testing.T, id int, groups []string, ref []*tensor.Tensor, ts ...*tensor.Tensor) ClientUpdate {
		t.Helper()
		blob, err := int8Codec{}.Encode(ref, ts, 7)
		if err != nil {
			t.Fatal(err)
		}
		return ClientUpdate{ClientID: id, Round: 1, State: blob, Groups: groups, NumSelected: 1, Codec: "int8"}
	}
	for _, tt := range []struct {
		name    string
		agg     func(*testing.T) *StreamAggregator
		good    func(*testing.T) ClientUpdate
		bad     func(*testing.T) ClientUpdate
		wantErr error
	}{
		{"whole state: shape mismatch", whole(nil),
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 4, nil, vec(9, 9, 9)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 4, nil, vec(1, 1)) }, ErrProtocol},
		{"whole state: tensor count mismatch", whole(nil),
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 4, nil, vec(9, 9, 9)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 4, nil, vec(1, 1, 1), vec(1)) }, ErrProtocol},
		{"whole state: zero selected", whole(nil),
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 4, nil, vec(9, 9, 9)) },
			func(t *testing.T) ClientUpdate { return zeroSelected(aggUpdate(t, 1, 4, nil, vec(1, 1, 1))) }, ErrProtocol},
		{"whole state: WeightFunc error", whole(picky),
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 2, nil, vec(9)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 2, nil, vec(1)) }, boom},
		{"whole state: non-positive weight", whole(picky),
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 2, nil, vec(9)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 2, 2, nil, vec(1)) }, ErrProtocol},
		{"layout: whole-state declaration with a subset's tensors", layout,
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 1, head, vec(9, 0)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 1, nil, vec(1, 0)) }, ErrProtocol},
		{"layout: unknown group", layout,
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 1, head, vec(9, 0)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 1, []string{"warp"}, vec(1, 0)) }, ErrProtocol},
		{"layout: duplicate group", layout,
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 1, head, vec(9, 0)) },
			func(t *testing.T) ClientUpdate {
				return aggUpdate(t, 1, 1, []string{"classifier", "classifier"}, vec(1, 0), vec(1, 0))
			}, ErrProtocol},
		{"layout: non-canonical order", layout,
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 1, head, vec(9, 0)) },
			func(t *testing.T) ClientUpdate {
				return aggUpdate(t, 1, 1, []string{"classifier", "up"}, vec(1, 0), vec(1, 0), vec(1, 0))
			}, ErrProtocol},
		{"layout: tensor count mismatch", layout,
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 1, head, vec(9, 0)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 1, []string{"up"}, vec(1, 0)) }, ErrProtocol},
		{"layout: zero selected", layout,
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 1, head, vec(9, 0)) },
			func(t *testing.T) ClientUpdate { return zeroSelected(aggUpdate(t, 1, 1, head, vec(1, 0))) }, ErrProtocol},
		// The second "up" tensor has the wrong shape: the whole update goes,
		// its well-formed first and third tensors included.
		{"layout: shape mismatch in a later tensor", layout,
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 1, aggGroups, vec(9, 0), vec(9, 0), vec(9, 0)) },
			func(t *testing.T) ClientUpdate {
				return aggUpdate(t, 1, 5, aggGroups, vec(100, 0), vec(100, 0, 0), vec(100, 0))
			}, ErrProtocol},
		// Non-finite weights: well-formed in every other respect, and a single
		// one would poison the sums, the global model and every checkpoint.
		{"whole state: NaN value", whole(nil),
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 4, nil, vec(9, 9, 9)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 4, nil, vec(1, nan, 1)) }, ErrProtocol},
		{"whole state: Inf in a later tensor", whole(nil),
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 4, nil, vec(1), vec(9)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 4, nil, vec(1), vec(-inf)) }, ErrProtocol},
		{"layout: Inf in a masked update", layout,
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 0, 1, head, vec(9, 0)) },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 1, 1, []string{"up"}, vec(1, 0), vec(0, inf)) }, ErrProtocol},
		{"int8: Inf in a whole-state update", int8Layout,
			func(t *testing.T) ClientUpdate { return int8Update(t, 0, nil, int8Ref(), int8Ref()...) },
			func(t *testing.T) ClientUpdate {
				return int8Update(t, 1, nil, int8Ref(), vec(1, 1), vec(2, inf), vec(9, 9))
			}, ErrProtocol},
		{"int8: Inf in a masked update", int8Layout,
			func(t *testing.T) ClientUpdate { return int8Update(t, 0, head, int8Ref()[2:], vec(9, 9)) },
			func(t *testing.T) ClientUpdate { return int8Update(t, 1, head, int8Ref()[2:], vec(-inf, 9)) }, ErrProtocol},
	} {
		t.Run(tt.name, func(t *testing.T) {
			agg := tt.agg(t)
			if err := agg.Add(tt.good(t)); err != nil {
				t.Fatal(err)
			}
			if err := agg.Add(tt.bad(t)); !errors.Is(err, tt.wantErr) {
				t.Fatalf("bad update: got %v, want %v", err, tt.wantErr)
			}
			if agg.Updates() != 1 {
				t.Fatalf("Updates() = %d after a rejected add, want 1", agg.Updates())
			}
			out, err := agg.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if got := out[len(out)-1].At(0); got != 9 {
				t.Fatalf("aggregate poisoned: last tensor = %v, want 9", got)
			}
		})
	}
}

// TestStreamAggregatorRejectsMalformedFirstUpdate is the hostile-peer gate:
// with the broadcast state set, the first arriving update is validated
// against its tensor count and shapes like every later one, so a malformed
// first reporter cannot redefine the layout for the honest rest — whole
// state, per-layer and codec paths alike.
func TestStreamAggregatorRejectsMalformedFirstUpdate(t *testing.T) {
	honest := func(t *testing.T, id, nsel int, v float32) ClientUpdate {
		return aggUpdate(t, id, nsel, nil, vec(v, v), vec(v, v), vec(v, v))
	}
	for _, tt := range []struct {
		name string
		agg  func(*testing.T) *StreamAggregator
		bad  func(*testing.T) ClientUpdate
	}{
		{"whole state: one tensor for three", func(*testing.T) *StreamAggregator { return NewStreamAggregator() },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 9, 5, nil, vec(7, 7)) }},
		{"whole state: wrong shapes", func(*testing.T) *StreamAggregator { return NewStreamAggregator() },
			func(t *testing.T) ClientUpdate { return aggUpdate(t, 9, 5, nil, vec(7), vec(7, 7, 7), vec(7, 7)) }},
		{"layout: wrong shape in a covered subset", func(t *testing.T) *StreamAggregator {
			agg, err := NewMaskedStreamAggregator(nil, aggGroups, aggLayout)
			if err != nil {
				t.Fatal(err)
			}
			return agg
		}, func(t *testing.T) ClientUpdate { return aggUpdate(t, 9, 5, []string{"classifier"}, vec(7, 7, 7)) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			agg := tt.agg(t)
			agg.SetCodec(nil, aggBroadcast())
			if err := agg.Add(tt.bad(t)); !errors.Is(err, ErrProtocol) {
				t.Fatalf("malformed first update: got %v, want ErrProtocol", err)
			}
			if agg.Updates() != 0 {
				t.Fatal("rejected first update was counted")
			}
			if err := agg.Add(honest(t, 0, 1, 0)); err != nil {
				t.Fatalf("honest update after a malformed first: %v", err)
			}
			if err := agg.Add(honest(t, 1, 3, 1)); err != nil {
				t.Fatal(err)
			}
			out, err := agg.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 3 {
				t.Fatalf("%d tensors, want the broadcast's 3", len(out))
			}
			for i := range out {
				if got := out[i].At(0); got != 0.75 {
					t.Fatalf("tensor %d = %v, want the honest-only average 0.75", i, got)
				}
			}
		})
	}
}

func TestNewMaskedStreamAggregatorValidation(t *testing.T) {
	if _, err := NewMaskedStreamAggregator(nil, nil, []string{"a"}); err == nil {
		t.Fatal("layout without groups accepted")
	}
	if _, err := NewMaskedStreamAggregator(nil, []string{"a", "a"}, []string{"a"}); err == nil {
		t.Fatal("duplicate group accepted")
	}
	if _, err := NewMaskedStreamAggregator(nil, []string{"a"}, []string{"b"}); err == nil {
		t.Fatal("layout with unknown group accepted")
	}
	if _, err := NewMaskedStreamAggregator(nil, []string{"a", "b"}, []string{"a"}); err == nil {
		t.Fatal("group without tensors accepted")
	}
	agg, err := NewMaskedStreamAggregator(nil, []string{"a"}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Finish(); err == nil {
		t.Fatal("Finish with no updates succeeded")
	}
	// A broadcast state that disagrees with the layout is refused on the
	// first Add, and an uncovered tensor has nothing to fall back to without
	// one.
	agg.SetCodec(nil, []*tensor.Tensor{vec(1), vec(2)})
	if err := agg.Add(aggUpdate(t, 0, 1, nil, vec(1))); !errors.Is(err, ErrProtocol) {
		t.Fatalf("broadcast/layout disagreement: got %v, want ErrProtocol", err)
	}
	bare, _ := NewMaskedStreamAggregator(nil, aggGroups, aggLayout)
	if err := bare.Add(aggUpdate(t, 0, 1, []string{"classifier"}, vec(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Finish(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("uncovered tensor without a broadcast state: got %v, want ErrProtocol", err)
	}
}

// honestMetadata is an update whose self-reported numbers checkMetadata
// accepts.
var honestMetadata = ClientUpdate{NumSelected: 10, TrainSeconds: 0.5, TrainLoss: 1.2, MeanEntropy: 0.7}

// metadataCases edit honestMetadata; reject marks the edits checkMetadata
// must refuse. TestCheckMetadata runs them against the check itself and
// TestStreamAggregatorRefusesLyingMetadata through Add.
var metadataCases = []struct {
	name   string
	edit   func(*ClientUpdate)
	reject bool
}{
	{"honest", func(*ClientUpdate) {}, false},
	{"zero seconds", func(u *ClientUpdate) { u.TrainSeconds = 0 }, false},
	{"no entropy signal", func(u *ClientUpdate) { u.MeanEntropy = math.NaN() }, false},
	{"zero selected", func(u *ClientUpdate) { u.NumSelected = 0 }, true},
	{"infinite seconds", func(u *ClientUpdate) { u.TrainSeconds = math.Inf(1) }, true},
	{"NaN seconds", func(u *ClientUpdate) { u.TrainSeconds = math.NaN() }, true},
	{"negative seconds", func(u *ClientUpdate) { u.TrainSeconds = -1 }, true},
	{"NaN loss", func(u *ClientUpdate) { u.TrainLoss = math.NaN() }, true},
	{"infinite loss", func(u *ClientUpdate) { u.TrainLoss = math.Inf(-1) }, true},
	{"infinite entropy", func(u *ClientUpdate) { u.MeanEntropy = math.Inf(1) }, true},
}

func TestCheckMetadata(t *testing.T) {
	for _, tt := range metadataCases {
		u := honestMetadata
		tt.edit(&u)
		err := checkMetadata(u)
		if (err != nil) != tt.reject {
			t.Errorf("%s: err %v, want rejection %v", tt.name, err, tt.reject)
		}
		if err != nil && !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: %v is not a protocol error", tt.name, err)
		}
	}
}

// TestStreamAggregatorRefusesLyingMetadata: Add runs checkMetadata before it
// touches anything, so a lying update around a valid state leaves Updates,
// Sum and the aggregate as they were, and an honest update folded after it
// finishes on the same bits as a fold that never saw the liar.
func TestStreamAggregatorRefusesLyingMetadata(t *testing.T) {
	meta := func(u ClientUpdate, edit func(*ClientUpdate)) ClientUpdate {
		m := honestMetadata
		edit(&m)
		u.NumSelected, u.TrainSeconds, u.TrainLoss, u.MeanEntropy = m.NumSelected, m.TrainSeconds, m.TrainLoss, m.MeanEntropy
		return u
	}
	first := meta(aggUpdate(t, 0, 0, nil, vec(1, 3), vec(2, 5), vec(3, 7)), func(*ClientUpdate) {})
	last := meta(aggUpdate(t, 2, 0, nil, vec(0.3, 1), vec(0.7, 2), vec(0.9, 3)), func(u *ClientUpdate) { u.NumSelected = 3 })
	ref, _ := newLayoutAggregator(t)
	for _, u := range []ClientUpdate{first, last} {
		if err := ref.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	wantSum := ref.Sum()
	want, err := ref.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range metadataCases {
		if !tt.reject {
			continue
		}
		t.Run(tt.name, func(t *testing.T) {
			agg, _ := newLayoutAggregator(t)
			if err := agg.Add(first); err != nil {
				t.Fatal(err)
			}
			before := agg.Sum()
			liar := meta(aggUpdate(t, 1, 0, nil, vec(50, 50), vec(50, 50), vec(50, 50)), tt.edit)
			if err := agg.Add(liar); !errors.Is(err, ErrProtocol) {
				t.Fatalf("lying update: got %v, want ErrProtocol", err)
			}
			if agg.Updates() != 1 || agg.Sum() != before {
				t.Fatalf("refused add moved the fold: %d updates, sum %+v, want 1 and %+v", agg.Updates(), agg.Sum(), before)
			}
			if err := agg.Add(last); err != nil {
				t.Fatal(err)
			}
			if agg.Sum() != wantSum {
				t.Fatalf("sum %+v, want the honest fold's %+v", agg.Sum(), wantSum)
			}
			got, err := agg.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("tensor %d: %v, want the honest fold's %v", i, got[i].Data(), want[i].Data())
				}
			}
		})
	}
}

// TestStreamAggregatorSumsMetadata: Sum is the round's fold-order sums of
// what the folded updates reported — entropy only over the updates that
// reported one — and Finish starts the next round's from zero.
func TestStreamAggregatorSumsMetadata(t *testing.T) {
	agg := NewStreamAggregator()
	a := aggUpdate(t, 0, 2, nil, vec(1))
	a.TrainSeconds, a.TrainLoss, a.MeanEntropy = 0.5, 1, 3
	b := aggUpdate(t, 1, 6, nil, vec(2))
	b.TrainSeconds, b.TrainLoss, b.MeanEntropy = 0.25, 2, math.NaN()
	for _, u := range []ClientUpdate{a, b} {
		if err := agg.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	want := RoundSum{Updates: 2, NumSelected: 8, TrainSeconds: 0.75, LossSum: 3, WeightedLoss: 2*1 + 6*2,
		EntropySum: 2 * 3, EntropyWeight: 2, UplinkBytes: int64(len(a.State) + len(b.State))}
	if got := agg.Sum(); got != want {
		t.Fatalf("sum %+v, want %+v", got, want)
	}
	if _, err := agg.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := agg.Sum(); got != (RoundSum{}) {
		t.Fatalf("sum after Finish %+v, want zero", got)
	}
}
