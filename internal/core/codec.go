package core

import (
	"fmt"

	"fedfteds/internal/comm"
	"fedfteds/internal/tensor"
)

// The simulator's codec wire simulation: when Config.Codec is set, every
// update's trained state makes the same journey it would in the
// distributed deployment — encoded under the session codec (against the
// broadcast reference the client trained from), then decoded server-side —
// before aggregation sees it. Quantization noise, topk's error-feedback
// residuals and the real payload byte counts all land in the run exactly
// as fedclient/fedserver would produce them, with per-client codec
// instances keyed by client ID so residual state follows the client across
// cohorts and checkpoints.

// codecFor returns the client's codec instance, creating it on first use.
// Instances are per client ID, never shared: topk carries error-feedback
// residuals across rounds and those belong to one client.
func (r *Runner) codecFor(clientID int) (comm.Codec, error) {
	if r.codecs == nil {
		r.codecs = make(map[int]comm.Codec)
	}
	if c, ok := r.codecs[clientID]; ok {
		return c, nil
	}
	c, err := comm.ParseCodec(r.cfg.Codec)
	if err != nil {
		return nil, fmt.Errorf("%w: codec %q: %v", ErrConfig, r.cfg.Codec, err)
	}
	r.codecs[clientID] = c
	return c, nil
}

// codecRoundTrip encodes and decodes one just-trained update through the
// session codec, replacing its state with what the server would decode (in
// the flight's own decode tensors) and its uplink size with the encoded
// payload's. An empty Config.Codec keeps the lossless path bit-identical to
// runs predating codecs; "identity" runs the (lossless) round trip and
// charges honest wire bytes. The reference is the live broadcast state
// (commState) — the values the client trained from, because nothing is
// aggregated during a dispatch — filtered to the update's covered tensors
// when it is masked, exactly the subset the client encoded against. The
// stochastic-rounding seed derives from (run seed, round, client ID), the
// same derivation fedclient uses, so simulated and distributed runs quantize
// identically.
func (r *Runner) codecRoundTrip(fl *flight, round int) error {
	if r.cfg.Codec == "" {
		return nil
	}
	res := &fl.res
	c, err := r.codecFor(res.clientID)
	if err != nil {
		return err
	}
	ref := r.commState
	if res.cover != nil {
		ref = r.coveredState(res.cover)
	}
	blob, err := c.Encode(ref, res.state, comm.CodecSeed(uint64(r.cfg.Seed), round, res.clientID))
	if err != nil {
		return fmt.Errorf("core: round %d: encoding client %d under %s: %w",
			round, res.clientID, c.Name(), err)
	}
	out, err := c.Decode(ref, fl.decBuf, blob)
	if err != nil {
		return fmt.Errorf("core: round %d: decoding client %d under %s: %w",
			round, res.clientID, c.Name(), err)
	}
	fl.decBuf = out[:cap(out)]
	res.state, res.uplink = out, int64(len(blob))
	return nil
}

// coveredState filters the live broadcast tensors down to the ones an
// update's cover map ships, in shipped order — the masked codec
// reference. The slice is runner scratch, valid until the next call.
func (r *Runner) coveredState(cover []int) []*tensor.Tensor {
	if cap(r.codecRefScratch) < len(r.commState) {
		r.codecRefScratch = make([]*tensor.Tensor, 0, len(r.commState))
	}
	ref := r.codecRefScratch[:0]
	for ti, ci := range cover {
		if ci >= 0 {
			ref = append(ref, r.commState[ti])
		}
	}
	r.codecRefScratch = ref
	return ref
}

// codecResiduals exports every client's carried error-feedback residuals
// for checkpointing (nil when no client carries any). The returned tensors
// are clones, safe to serialize while the run continues.
func (r *Runner) codecResiduals() map[int][]*tensor.Tensor {
	var out map[int][]*tensor.Tensor
	for id, c := range r.codecs {
		rc, ok := c.(comm.ResidualCarrier)
		if !ok {
			continue
		}
		res := rc.ResidualState()
		if res == nil {
			continue
		}
		cloned := make([]*tensor.Tensor, len(res))
		for i, t := range res {
			cloned[i] = t.Clone()
		}
		if out == nil {
			out = make(map[int][]*tensor.Tensor)
		}
		out[id] = cloned
	}
	return out
}

// restoreCodecResiduals reinstalls checkpointed residual state: one codec
// instance per client ID, each carrying its saved residuals, so the
// resumed run's next Encode continues the error-feedback chain bit for
// bit.
func (r *Runner) restoreCodecResiduals(residuals map[int][]*tensor.Tensor) error {
	for id, res := range residuals {
		c, err := r.codecFor(id)
		if err != nil {
			return err
		}
		rc, ok := c.(comm.ResidualCarrier)
		if !ok {
			return fmt.Errorf("%w: checkpoint carries residuals for client %d but codec %q has none",
				ErrConfig, id, r.cfg.Codec)
		}
		if err := rc.RestoreResidualState(res); err != nil {
			return err
		}
	}
	return nil
}
