package core

import (
	"reflect"
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
)

// TestReplicaPathBitIdenticalToLegacy pins the replica pool's invariant:
// training on reused replicas (model, optimizer, batch iterator and state
// buffers rebound per client) produces byte-for-byte the same History and
// final global model as giving every client-round a fresh one-shot replica,
// so reuse leaks no state from one client into the next. It runs across
// selectors, momentum and FedProx, and with more clients than workers so
// replicas are rebound mid-round.
func TestReplicaPathBitIdenticalToLegacy(t *testing.T) {
	clients, _, test, spec := testFederation(t, 6, 0.5)

	cases := []struct {
		name string
		cfg  Config
		spec models.Spec
	}{
		{
			name: "eds-momentum-partial",
			cfg: Config{
				Rounds:         3,
				LocalEpochs:    2,
				BatchSize:      16,
				LR:             0.1,
				Momentum:       0.5,
				FinetunePart:   models.FinetuneModerate,
				Selector:       selection.Entropy{Temperature: 0.1},
				SelectFraction: 0.5,
				Parallelism:    3,
				Seed:           42,
			},
			spec: spec,
		},
		{
			// Named when the row also ran dropout and weight decay.
			name: "prox-dropout-full",
			cfg: Config{
				Rounds:         2,
				LocalEpochs:    2,
				BatchSize:      8,
				LR:             0.05,
				Momentum:       0.9,
				Strategy:       mustFedProx(0.01),
				FinetunePart:   models.FinetuneFull,
				Selector:       selection.Random{},
				SelectFraction: 0.7,
				Parallelism:    2,
				Seed:           7,
			},
			spec: spec,
		},
		{
			name: "all-straggler-serial",
			cfg: Config{
				Rounds:      2,
				LocalEpochs: 1,
				BatchSize:   32,
				LR:          0.1,
				Straggler:   simtime.FractionParticipation{Fraction: 0.6},
				Parallelism: 1,
				Seed:        3,
			},
			spec: spec,
		},
	}

	run := func(t *testing.T, pooled bool, cfg Config, spec models.Spec) (History, *models.Model) {
		t.Helper()
		prev := reuseReplicas
		reuseReplicas = pooled
		defer func() { reuseReplicas = prev }()
		m, err := models.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := NewRunner(cfg, m, clients, test)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		return hist, m
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			histFresh, mFresh := run(t, false, tc.cfg, tc.spec)
			histPooled, mPooled := run(t, true, tc.cfg, tc.spec)

			if !reflect.DeepEqual(histFresh, histPooled) {
				t.Fatalf("histories differ:\nfresh:  %+v\npooled: %+v", histFresh, histPooled)
			}
			requireSameState(t, mFresh, mPooled)
		})
	}
}
