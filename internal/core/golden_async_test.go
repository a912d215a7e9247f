package core

import (
	"os"
	"path/filepath"
	"testing"

	"fedfteds/internal/ckpt"
	"fedfteds/internal/comm"
	"fedfteds/internal/models"
)

const goldenAsyncCkptFile = "testdata/golden-async-round2.fedckpt"

// goldenAsyncState is the fixed async section behind the committed fixture:
// a server two updates into its buffer, one of them already a version stale.
// The values are arbitrary but frozen — the test pins them field by field.
func goldenAsyncState() *AsyncState {
	return &AsyncState{
		Version: 7,
		Buffer: []comm.ClientUpdate{
			{
				ClientID: 3, Round: 8, Version: 7,
				State:       []byte("golden-async-update-a"),
				Groups:      []string{"fc2", "classifier"},
				NumSelected: 12, TrainSeconds: 3.5, TrainLoss: 1.25, MeanEntropy: 0.75,
			},
			{
				ClientID: 1, Round: 8, Version: 6,
				State:       []byte("golden-async-update-b"),
				NumSelected: 7, TrainSeconds: 2.25, TrainLoss: 0.875, MeanEntropy: 0.5,
			},
		},
	}
}

// goldenAsyncConfig keeps the fixture cheap: a plain two-round FedAvg run
// whose snapshot the async section is grafted onto.
func goldenAsyncConfig() Config {
	return Config{
		Rounds:      2,
		LocalEpochs: 1,
		BatchSize:   16,
		LR:          0.1,
		Momentum:    0.5,
		Parallelism: 2,
		Seed:        77,
	}
}

// TestGoldenCheckpointAsync pins the optional "async" checkpoint section the
// distributed server's buffered mode persists: the committed fixture must
// decode, surface the exact buffered-update fields, and re-encode byte for
// byte. It fails on silent drift in the async section's format. Regenerate
// with -update-golden after an *intentional* format change.
func TestGoldenCheckpointAsync(t *testing.T) {
	clients, _, test, spec := testFederation(t, 4, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		runner, err := NewRunner(goldenAsyncConfig(), m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.Run(); err != nil {
			t.Fatal(err)
		}
		state, err := runner.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		state.Async = goldenAsyncState()
		sections, err := state.Sections()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := ckpt.Marshal(sections)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenAsyncCkptFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAsyncCkptFile, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenAsyncCkptFile)
		return
	}

	blob, err := os.ReadFile(goldenAsyncCkptFile)
	if err != nil {
		t.Fatalf("missing golden async checkpoint (regenerate with -update-golden): %v", err)
	}
	sections, err := ckpt.Unmarshal(blob)
	if err != nil {
		t.Fatalf("golden async checkpoint no longer decodes: %v", err)
	}
	state, err := RunStateFromSections(sections)
	if err != nil {
		t.Fatalf("golden async run state no longer decodes: %v", err)
	}
	want := goldenAsyncState()
	got := state.Async
	if got == nil {
		t.Fatal("golden async checkpoint lost its async section")
	}
	if got.Version != want.Version {
		t.Fatalf("async version %d, want %d", got.Version, want.Version)
	}
	if len(got.Buffer) != len(want.Buffer) {
		t.Fatalf("%d buffered updates, want %d", len(got.Buffer), len(want.Buffer))
	}
	for i, w := range want.Buffer {
		g := got.Buffer[i]
		if g.ClientID != w.ClientID || g.Round != w.Round || g.Version != w.Version ||
			string(g.State) != string(w.State) || g.NumSelected != w.NumSelected ||
			g.TrainSeconds != w.TrainSeconds || g.TrainLoss != w.TrainLoss ||
			g.MeanEntropy != w.MeanEntropy {
			t.Fatalf("buffered update %d drifted:\nwant %+v\ngot  %+v", i, w, g)
		}
		if len(g.Groups) != len(w.Groups) {
			t.Fatalf("buffered update %d has %d groups, want %d", i, len(g.Groups), len(w.Groups))
		}
		for k := range w.Groups {
			if g.Groups[k] != w.Groups[k] {
				t.Fatalf("buffered update %d group %d: %q, want %q", i, k, g.Groups[k], w.Groups[k])
			}
		}
	}

	reSections, err := state.Sections()
	if err != nil {
		t.Fatal(err)
	}
	reBlob, err := ckpt.Marshal(reSections)
	if err != nil {
		t.Fatal(err)
	}
	if string(reBlob) != string(blob) {
		t.Fatalf("re-encoding the golden async state changed its bytes (%d vs %d): the async "+
			"section format drifted without a fixture update", len(reBlob), len(blob))
	}
}

// TestAsyncBufferRestoresCodecEcho: the async section does not store each
// buffered update's codec echo, so a decoded buffer must carry the session
// codec the codec section names — otherwise a warm-started float16 server
// would refuse its own checkpointed updates as identity-encoded.
func TestAsyncBufferRestoresCodecEcho(t *testing.T) {
	state := &RunState{CodecName: "float16", Async: goldenAsyncState()}
	sections, err := state.Sections()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStateFromSections(sections)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Async.Buffer) != 2 {
		t.Fatalf("%d buffered updates, want 2", len(got.Async.Buffer))
	}
	for i, u := range got.Async.Buffer {
		if u.Codec != "float16" {
			t.Fatalf("buffered update %d decoded with codec echo %q, want float16", i, u.Codec)
		}
	}
}
