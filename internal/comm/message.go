// Package comm implements the federated-learning wire protocol: compact
// tensor encoding, typed messages with byte-specified bodies, and Transport
// implementations for in-process testing and real TCP deployments
// (length-prefixed frames). It is what cmd/fedserver and cmd/fedclient speak.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fedfteds/internal/tensor"
)

// ErrProtocol reports a malformed or unexpected message.
var ErrProtocol = errors.New("comm: protocol error")

// ErrTimeout reports a Send or Recv that exceeded the connection deadline.
// TCP connections surface the equivalent os.ErrDeadlineExceeded instead;
// isTimeout recognizes both.
var ErrTimeout = errors.New("comm: deadline exceeded")

// MsgType identifies a message on the wire.
type MsgType uint8

const (
	// MsgHello is the client's registration message.
	MsgHello MsgType = iota + 1
	// MsgWelcome is the server's registration reply.
	MsgWelcome
	// MsgRoundStart carries the global state for one training round.
	MsgRoundStart
	// MsgClientUpdate carries a client's trained state back to the server.
	MsgClientUpdate
	// MsgShutdown ends the session.
	MsgShutdown
	// MsgRegionUpdate carries a relay's folded regional delta upstream.
	MsgRegionUpdate
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgRoundStart:
		return "round-start"
	case MsgClientUpdate:
		return "client-update"
	case MsgShutdown:
		return "shutdown"
	case MsgRegionUpdate:
		return "region-update"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Hello registers a client with the server.
type Hello struct {
	// ClientID is the federation index the client claims.
	ClientID int
	// LocalSize is the client's local dataset size.
	LocalSize int
	// Tier names the client's device capability tier (see internal/device);
	// empty on untiered federations.
	Tier string
	// Relay marks a mid-tier aggregator registering on behalf of a region
	// rather than a single device. Relays answer RoundStarts with
	// RegionUpdate frames instead of ClientUpdates.
	Relay bool
	// Clients is the number of downstream leaf clients a relay speaks for
	// (zero for plain clients). The root's scheduler uses it to weigh a
	// region candidate by its population rather than as a single device.
	Clients int
}

// Welcome acknowledges registration and shares run parameters.
type Welcome struct {
	// NumClients is the expected federation size.
	NumClients int
	// Rounds is the planned number of communication rounds.
	Rounds int
	// Codecs advertises the uplink codec the session runs, by canonical
	// name (see ParseCodec). A server running the identity codec
	// advertises nothing. Clients adopt the advertisement (-codec auto) or
	// fail fast on a mismatch (PickCodec).
	Codecs []string
}

// RoundStart instructs a client to run one local round.
type RoundStart struct {
	// Round is the 1-based round index.
	Round int
	// State is the encoded global model state for the communicated groups.
	// Decoded, it aliases the received Envelope.Body: read-only.
	State []byte
	// Groups names the model groups State covers (FedFT ships only the
	// trainable upper part).
	Groups []string
	// SelectFraction is P_ds for this round.
	SelectFraction float64
	// LocalEpochs is E.
	LocalEpochs int
	// Version stamps the global model state with the number of rounds the
	// engine completed (RoundEngine.Version at dispatch). The engine keeps
	// its own record of it per dispatch to measure the update's staleness.
	Version int
	// Layout names, per tensor of State, the group it belongs to (the
	// models.GroupStateLayout of the broadcast). The root sets it in relay
	// mode so a relay — which has no model of its own — can aggregate
	// masked tier updates per layer. Empty otherwise.
	Layout []string
}

// ClientUpdate returns a client's trained state.
type ClientUpdate struct {
	// ClientID identifies the sender.
	ClientID int
	// Round echoes the round index.
	Round int
	// State is the encoded updated state for the communicated groups.
	// Decoded, it aliases the received Envelope.Body: read-only.
	State []byte
	// Groups names the model groups State covers, in canonical bottom-to-top
	// order. Empty means the client trained every group the server
	// broadcast (the legacy whole-state contract); a tiered client reports
	// the subset its layer mask afforded, and groups outside it ship zero
	// bytes.
	Groups []string
	// NumSelected is |D_select|, the aggregation weight numerator.
	NumSelected int
	// TrainSeconds is the client's reported local compute time.
	TrainSeconds float64
	// TrainLoss is the final epoch's mean training loss, so the server can
	// report rounds the same way the in-process simulator does.
	TrainLoss float64
	// MeanEntropy is the mean EDS entropy over the client's full local
	// dataset (NaN when the client's selector has no utility signal). The
	// server feeds it to the cohort scheduler as the client-level utility.
	MeanEntropy float64
	// Version is the model version this update was trained against. On the
	// wire it echoes RoundStart.Version and is not trusted: the engine
	// overwrites it with the version it dispatched before the fold, which
	// discounts the update by its staleness (current version minus Version).
	Version int
	// Codec names the codec State is encoded with, echoing the session
	// codec negotiated at Hello/Welcome. Empty means identity. The server's
	// aggregators reject an echo that disagrees with the session codec
	// before touching State.
	Codec string
}

// RegionUpdate is a relay's pre-folded aggregate of its region's client
// updates, sent upstream in place of the individual ClientUpdates. The root
// treats a region like one heavyweight client: State already holds the
// weighted average over the region's reporting leaves, and the summary
// fields let the root's strategy weigh the region by its population.
type RegionUpdate struct {
	// RelayID identifies the sending relay in the root's ID space.
	RelayID int
	// Round echoes the round index.
	Round int
	// Version echoes RoundStart.Version (see ClientUpdate.Version).
	Version int
	// State is the encoded weighted-average state over the region's
	// reporting leaves, covering every group the root broadcast (a relay
	// resolves leaf layer masks locally, falling back to the broadcast
	// state for uncovered layers). Decoded, it aliases the received
	// Envelope.Body: read-only.
	State []byte
	// Weight is the summed aggregation weight the relay folded, so the root
	// can reproduce the flat federation's arithmetic exactly:
	// sum_r W_r * regionAvg_r / sum_r W_r == the flat weighted average.
	Weight float64
	// Clients is how many leaf clients reported into this delta.
	Clients int
	// NumSelected is the summed |D_select| over reporting leaves; under the
	// default selected-size weighting it equals Weight.
	NumSelected int
	// TrainSeconds is the summed local compute time across the region.
	TrainSeconds float64
	// TrainLoss is the weight-averaged training loss across the region.
	TrainLoss float64
	// MeanEntropy is the weight-averaged EDS entropy over the leaves that
	// reported one (NaN when none did), the region-level scheduler utility.
	MeanEntropy float64
	// Codec names the codec State is encoded with on the upstream leg
	// (the root's session codec, which may differ from the codec the
	// relay negotiated with its leaves). Empty means identity.
	Codec string
}

// Shutdown ends the session.
type Shutdown struct {
	// Reason is a human-readable explanation.
	Reason string
}

// EncodeTensors serializes tensors into one buffer using the tensor wire
// format, prefixed with a count. The buffer is allocated once at its exact
// size, 4 + Σ EncodedSize, and every tensor is written into it in place.
func EncodeTensors(ts []*tensor.Tensor) ([]byte, error) {
	size := 4
	for _, t := range ts {
		size += t.EncodedSize()
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(ts)))
	for i, t := range ts {
		var err error
		if b, err = t.AppendTo(b); err != nil {
			return nil, fmt.Errorf("comm: encode tensor %d: %w", i, err)
		}
	}
	return b, nil
}

// DecodeTensors reverses EncodeTensors.
func DecodeTensors(b []byte) ([]*tensor.Tensor, error) {
	return DecodeTensorsReuse(nil, b)
}

// DecodeTensorsReuse decodes b like DecodeTensors but reuses scratch — the
// slice and the storage of any tensors it holds — when capacities allow.
// The streaming aggregators pass their previous round's decode buffer so
// steady-state folds allocate nothing. The returned tensors alias scratch's;
// the caller owns both and must not use them past the next reuse.
func DecodeTensorsReuse(scratch []*tensor.Tensor, b []byte) ([]*tensor.Tensor, error) {
	count, err := readBlobCount(b)
	if err != nil {
		return nil, err
	}
	out := reuseTensorSlice(scratch, count)
	off := 4
	for i := range out {
		if out[i] == nil {
			out[i] = new(tensor.Tensor)
		}
		n, err := out[i].DecodeFrom(b[off:])
		if err != nil {
			return nil, fmt.Errorf("comm: decode tensor %d: %w", i, err)
		}
		off += n
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after tensors", ErrProtocol, len(b)-off)
	}
	return out, nil
}
