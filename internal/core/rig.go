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
// it builds once: a chip is tens of megabytes of memory that the next
// program uses again, retargeted when it targets another architecture (and
// rebuilt only for other lane capacity), else Reset, re-staged and
// scrubbed. A design-space sweep worker holds one. Every run is
// byte-identical to Simulate on a fresh chip. A Rig is not safe for
// concurrent use; its zero value is ready.
type Rig struct {
	ch *sim.Chip
	// cfg is the architecture ch is configured for, Name cleared: it never
	// reaches the chip.
	cfg arch.Config
	// span is the global memory the last program staged on ch lays out. A
	// compiled program reads and writes inside its layout only, so past span
	// ch's global memory holds the zeros it was built with.
	span int
}

// Simulate is core.Simulate on the rig's chip.
func (r *Rig) Simulate(ctx context.Context, compiled *compiler.Compiled, ws model.WeightStore, input tensor.Tensor, opt Options) (*Result, error) {
	opt.MaxPooledChips = 1
	s, err := NewSession(compiled, ws, opt)
	if err != nil {
		return nil, err
	}
	cfg := *s.cfg
	cfg.Name = ""
	// The rig lets go of its chip first: one that fails to re-stage is not
	// kept, and one of other lane capacity is garbage before Infer builds the
	// next.
	ch := r.ch
	r.ch = nil
	if ch != nil && ch.LaneCap() == s.opt.SimLanes {
		if err := r.restage(ch, s, cfg); err != nil {
			return nil, err
		}
		s.free <- ch
	}
	res, err := s.Infer(ctx, input)
	// Infer hands the chip back to the pool on every exit, an aborted run's
	// included: the next acquire resets it like any pooled chip.
	select {
	case r.ch = <-s.free:
		r.cfg, r.span = cfg, compiled.GlobalBytes()
	default:
	}
	return res, err
}

// restage readies a chip that ran another program for s, whose architecture
// is cfg. A chip of another architecture is retargeted, which leaves it as
// newChip builds it; on one of the same, the last program's global memory
// past s's layout is zeroed, and acquire resets the cores and zeroes s's
// scratch ranges. Session.stage then loads the programs and weights, and
// every byte is what newChip would have left.
func (r *Rig) restage(ch *sim.Chip, s *Session, cfg arch.Config) error {
	if cfg != r.cfg {
		if err := ch.Retarget(s.cfg); err != nil {
			return err
		}
	} else if n := s.compiled.GlobalBytes(); n < r.span {
		if err := ch.ZeroGlobal(n, r.span-n); err != nil {
			return err
		}
	}
	return s.stage(ch)
}
