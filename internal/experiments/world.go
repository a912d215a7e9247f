package experiments

import (
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/models"
)

// World is the deterministic shared setup of the distributed demo: every
// fedserver, fedclient and in-process test derives the same one from the
// federation seed, so server and clients agree on model and data without
// moving either.
type World struct {
	// Global is the source-pretrained global model; a run's finetune part is
	// the server's to apply (federation.Serve, like the Runner, sets
	// Run.FinetunePart). Each participant trains its own Clone.
	Global *models.Model
	// Test is the held-out evaluation set.
	Test *data.Dataset
	// Clients holds every participant's local non-IID partition and device,
	// indexed by client ID.
	Clients []*core.Client
}

// NewWorld builds the shared world at ScaleFast: the standard domain suite,
// a Dirichlet(0.1) federation of numClients over the 10-class target, and
// the pretrained model.
func NewWorld(seed int64, numClients int) (*World, error) {
	env, err := NewEnv(ScaleFast, seed)
	if err != nil {
		return nil, err
	}
	fed, err := env.BuildFederation(env.Suite.Target10, numClients, 0.1, 31337)
	if err != nil {
		return nil, err
	}
	global, err := env.PretrainedModel(env.Suite.Target10, env.Suite.Source)
	if err != nil {
		return nil, err
	}
	return &World{Global: global, Test: fed.Test, Clients: fed.Clients}, nil
}
