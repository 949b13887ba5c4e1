package core

import (
	"context"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// Rig runs compiled programs one after another on one simulated chip, which
// it builds only when a program targets another architecture (or other chip
// options) than the last: a chip is tens of megabytes of memory that a
// program of the same architecture can use again once Reset, re-staged and
// scrubbed. A design-space sweep worker holds one. Every run is
// byte-identical to Simulate on a fresh chip. A Rig is not safe for
// concurrent use; its zero value is ready.
type Rig struct {
	ch  *sim.Chip
	key rigKey // what ch was built for
	// span is the global memory the last program staged on ch lays out. A
	// compiled program reads and writes inside its layout only, so past span
	// ch's global memory holds the zeros it was built with.
	span int
}

// rigKey is everything a chip's construction depends on.
type rigKey struct {
	cfg    arch.Config // Name cleared: it never reaches the chip
	lanes  int
	legacy bool
}

func newRigKey(cfg arch.Config, lanes int, legacy bool) rigKey {
	cfg.Name = ""
	return rigKey{cfg, lanes, legacy}
}

// Fits reports whether the rig holds a chip of cfg's architecture, so that
// its next one-lane run on cfg builds none.
func (r *Rig) Fits(cfg *arch.Config) bool {
	return r.ch != nil && r.key == newRigKey(*cfg, 1, false)
}

// Simulate is core.Simulate on the rig's chip.
func (r *Rig) Simulate(ctx context.Context, compiled *compiler.Compiled, ws model.WeightStore, input tensor.Tensor, opt Options) (*Result, error) {
	opt.MaxPooledChips = 1
	s, err := NewSession(compiled, ws, opt)
	if err != nil {
		return nil, err
	}
	key := newRigKey(*s.cfg, s.opt.SimLanes, s.opt.LegacyInterpreter)
	// The rig lets go of its chip first: a chip of another architecture is
	// garbage before Infer builds the next one, and one that fails to re-stage
	// is not kept.
	ch := r.ch
	r.ch = nil
	if ch != nil && r.key == key {
		if err := r.restage(ch, s); err != nil {
			return nil, err
		}
		s.free <- ch
	}
	res, err := s.Infer(ctx, input)
	// Infer hands the chip back to the pool on every exit, an aborted run's
	// included: the next acquire resets it like any pooled chip.
	select {
	case r.ch = <-s.free:
		r.key, r.span = key, compiled.GlobalBytes()
	default:
	}
	return res, err
}

// restage readies a chip that ran another program of s's architecture for
// s. Session.stage loads the programs and weights over whatever the last
// program left, acquire resets the cores and zeroes s's scratch ranges, and
// here the last program's global memory past s's layout is zeroed: after
// that, every byte is what newChip would have left.
func (r *Rig) restage(ch *sim.Chip, s *Session) error {
	if n := s.compiled.GlobalBytes(); n < r.span {
		if err := ch.ZeroGlobal(n, r.span-n); err != nil {
			return err
		}
	}
	return s.stage(ch)
}
