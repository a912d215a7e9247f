package core

import (
	"cmp"
	"fmt"

	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// ClientDesc is the cheap per-client metadata a ClientSource exposes without
// materializing the client's dataset: everything cohort scheduling and cost
// projection need. For a virtual fleet this is derived from the client's seed
// at registration; for the legacy eager pool it is read off the held client.
type ClientDesc struct {
	// DataSize is the client's local sample count.
	DataSize int
	// Device is the client's simulated compute capability.
	Device simtime.Device
	// Cluster is the client's similarity-cluster index (0 when the source
	// does not cluster), consumed by the sched cluster:<inner> policy.
	Cluster int
}

// ClientSource abstracts where a Runner's clients come from. The legacy path
// holds every *Client in memory for the whole run; a virtual fleet holds only
// descriptors and materializes clients on Acquire, bounding resident memory by
// the cohort (plus a reuse pool), not the population.
//
// The contract the Runner depends on:
//   - Describe(pos) must agree exactly with the client Acquire returns for pos
//     (same DataSize, same Device) — projected costs and scheduling candidates
//     are computed from descriptors alone.
//   - Acquire must return clients in the order of positions, appended into
//     dst[:0] (the caller reuses the backing array across rounds).
//   - Acquired clients stay valid until Release; Release may evict them.
//   - Materialization must be deterministic: acquiring the same position twice
//     yields bit-identical datasets.
type ClientSource interface {
	// NumClients is the population size.
	NumClients() int
	// Describe returns the descriptor for pool position pos in [0, NumClients).
	Describe(pos int) ClientDesc
	// Acquire materializes (or retrieves) the clients at positions, appending
	// them to dst[:0] in order.
	Acquire(positions []int, dst []*Client) ([]*Client, error)
	// Release returns acquired clients to the source.
	Release(clients []*Client)
	// Fingerprint identifies the population's construction (seeds, sizes,
	// clustering) for checkpoint validation. The legacy eager source returns
	// "" and checkpoints fall back to hashing every client's identity; a
	// virtual fleet returns a stable non-empty fingerprint so million-client
	// checkpoints do not pay a per-client hash.
	Fingerprint() string
}

// eagerSource adapts the legacy in-memory client slice to ClientSource. Every
// descriptor and acquisition reads the held clients directly, so a Runner
// driven through it is bit-identical to the pre-source engine.
type eagerSource struct {
	clients []*Client
}

func (s eagerSource) NumClients() int { return len(s.clients) }

func (s eagerSource) Describe(pos int) ClientDesc {
	cl := s.clients[pos]
	return ClientDesc{DataSize: cl.Data.Len(), Device: cl.Device, Cluster: cl.Cluster}
}

func (s eagerSource) Acquire(positions []int, dst []*Client) ([]*Client, error) {
	dst = dst[:0]
	for _, p := range positions {
		if p < 0 || p >= len(s.clients) {
			return nil, fmt.Errorf("core: acquire position %d outside pool of %d", p, len(s.clients))
		}
		dst = append(dst, s.clients[p])
	}
	return dst, nil
}

func (s eagerSource) Release([]*Client) {}

func (s eagerSource) Fingerprint() string { return "" }

// NewRunnerWithSource constructs a runner whose clients come from a
// ClientSource instead of an in-memory slice. Every dispatch acquires its
// participants from the source and releases them as soon as they have
// trained, so resident client memory is bounded by the dispatch (at most the
// window: Config.CohortSize under a scheduler, the population without one)
// and the source's reuse pool, for synchronous and buffered runs alike.
func NewRunnerWithSource(cfg Config, global *models.Model, src ClientSource, test *data.Dataset) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if global == nil {
		return nil, fmt.Errorf("%w: nil global model", ErrConfig)
	}
	if src == nil {
		return nil, fmt.Errorf("%w: nil client source", ErrConfig)
	}
	if src.NumClients() <= 0 {
		return nil, fmt.Errorf("%w: client source holds no clients", ErrConfig)
	}
	if test == nil || test.Len() == 0 {
		return nil, fmt.Errorf("%w: empty test set", ErrConfig)
	}
	for pos := 0; pos < src.NumClients(); pos++ {
		d := src.Describe(pos)
		if d.DataSize <= 0 {
			return nil, fmt.Errorf("%w: client %d has no data", ErrConfig, pos)
		}
		if d.Device.FLOPSRate <= 0 {
			return nil, fmt.Errorf("%w: client %d device rate %v", ErrConfig, pos, d.Device.FLOPSRate)
		}
	}
	return &Runner{cfg: cfg, global: global, src: src, test: test, prog: Progress{Tracker: sched.NewTracker()},
		strat: cmp.Or[strategy.Strategy](cfg.Strategy, strategy.FedAvg()), eval: NewEvalView(global, test)}, nil
}
