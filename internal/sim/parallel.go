package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"cimflow/internal/isa"
)

// This file is the conservative-window parallel scheduler. The serial
// scheduler in Run executes micro-ops in strict (time, core-id) order; the
// parallel scheduler produces the exact same simulation — byte-identical
// outputs, cycles, energy, per-core stats and NoC traffic — by splitting
// every core's instruction stream into two classes:
//
//   - Local micro-ops touch only the core's own registers, local memory,
//     macro weights, accumulators and stats. They commute across cores, so
//     workers advance many cores through their local stretches
//     concurrently ("windows") without any coordination.
//
//   - Shared micro-ops (SEND, RECV, BARRIER, HALT, and the scalar-memory /
//     MEMCPY forms whose operands resolve to global memory) interact
//     through the mesh NoC, the mailboxes, the barrier or global memory,
//     all of which are order-sensitive. A worker parks its core just
//     before one of these; the scheduler goroutine commits parked ops
//     serially in (time, core-id) order — the serial schedule's order.
//
// A parked op at key (t, id) commits only once it is provably the global
// schedule minimum: every still-running core r was released at snapshot
// key (r.lbTime, r.id), core times never decrease, so r's next shared op
// cannot precede its snapshot. When the parked minimum is before every
// running snapshot, no earlier shared op can still appear, and committing
// it replays exactly the serial interleaving of cross-core effects. Errors
// and the cycle-limit guard park the same way, so the first error
// surfaced matches the serial schedule's first error.
//
// A window is as long as the distance to the core's next shared op —
// potentially thousands of fused micro-ops, degenerating to a single op
// when two cores interact every cycle (correct, just serialized).

// sharedStep reports whether c's next micro-op can affect — or be
// affected by — state outside the core. The classification may read the
// core's registers (SC_LD/SC_ST/MEMCPY resolve local vs global from
// operand values): they are exact here because a core's functional state
// advances in program order regardless of schedule.
func sharedStep(c *core, d *isa.Decoded) bool {
	switch d.Kind {
	case isa.KindSend, isa.KindRecv, isa.KindBarrier:
		return true
	case isa.KindHALT:
		// Halting flips the flag the barrier reads to count participants.
		return true
	case isa.KindScMem:
		return c.reg(d.RS)+d.Imm >= GlobalBase
	case isa.KindMemCpy:
		return c.reg(d.RS) >= GlobalBase || c.reg(d.RD)+d.Imm >= GlobalBase
	}
	return false
}

// advPollSteps is how many window steps pass between shutdown-flag polls,
// keeping cancellation latency in the microseconds without an atomic load
// on every micro-op.
const advPollSteps = 1024

// advance is the window body run by workers: it executes c's local
// micro-ops back to back and returns with c parked — at a shared op, or
// with parkErr set when an instruction faulted or c crossed the cycle
// limit. The park key is (c.time, c.id), exactly the key under which the
// serial scheduler would execute the op that stopped the window.
func (ch *Chip) advance(c *core, stop *atomic.Bool) {
	limit := ch.limit
	for steps := 1; ; steps++ {
		if steps%advPollSteps == 0 && stop.Load() {
			return // run is being aborted; the park is discarded
		}
		if c.time > limit {
			c.parkErr = ch.limitErr(c)
			return
		}
		if c.pc >= len(c.prog) {
			c.parkErr = c.errf("fell off the end of the program")
			return
		}
		d := &c.prog[c.pc]
		if sharedStep(c, d) {
			return
		}
		c.stats.Energy.FrontendPJ += c.frontPJ
		c.stats.Instructions++
		if _, err := decHandlers[d.Kind](c, d); err != nil {
			c.parkErr = err
			return
		}
	}
}

// commitBefore reports whether parked core p is provably the global
// schedule minimum: strictly before every running core's release
// snapshot. Core ids are unique, so keys never tie.
func commitBefore(p *core, running []*core) bool {
	for _, r := range running {
		if r.lbTime < p.time || (r.lbTime == p.time && r.id < p.id) {
			return false
		}
	}
	return true
}

// runParallel executes the loaded programs under the windowed parallel
// scheduler. Run routes here only for the predecoded pipeline with more
// than one worker and more than one active core; the simulation result is
// bit-identical to the serial path by the argument above, which the
// three-way differential suite (legacy / serial / parallel at 1, 2 and 8
// workers) checks on every zoo model and strategy.
func (ch *Chip) runParallel(ctx context.Context, active, workers int) (stats *Stats, err error) {
	// Label the scheduler goroutine so -cpuprofile output splits time
	// between window execution (workers, phase=sim-window) and the serial
	// commit phase.
	pprof.Do(ctx, pprof.Labels("phase", "sim-commit"), func(ctx context.Context) {
		stats, err = ch.runWindows(ctx, active, workers)
	})
	return stats, err
}

func (ch *Chip) runWindows(ctx context.Context, active, workers int) (*Stats, error) {
	if workers > active {
		workers = active
	}
	// Channel capacities cover every active core, so neither the workers
	// nor the scheduler ever block on a send.
	workCh := make(chan *core, active)
	parkCh := make(chan *core, active)
	var stop atomic.Bool
	cancelWatch := context.AfterFunc(ctx, func() { stop.Store(true) })
	defer cancelWatch()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("phase", "sim-window"), func(context.Context) {
				for c := range workCh {
					ch.advance(c, &stop)
					parkCh <- c
				}
			})
		}()
	}

	running := ch.runList[:0]
	parked := ch.parked[:0]
	defer func() {
		ch.runList = running[:0]
		ch.parked = parked[:0]
	}()
	release := func(c *core) {
		c.lbTime = c.time
		running = append(running, c)
		workCh <- c
	}
	unpark := func(c *core) {
		for i, r := range running {
			if r == c {
				running[i] = running[len(running)-1]
				running = running[:len(running)-1]
				break
			}
		}
	}
	// shutdown tears the pool down on every exit path: workers must be
	// drained before the caller regains the chip (Reset + rerun on a
	// pooled chip must never race a straggling window).
	shutdown := func() {
		stop.Store(true)
		for len(running) > 0 {
			unpark(<-parkCh)
		}
		close(workCh)
		wg.Wait()
	}

	// Every active core starts runnable at time 0; Run staged them on the
	// ready heap, which the commit loop also drains for cores woken by
	// message delivery and barrier release.
	for _, c := range ch.ready {
		release(c)
	}
	ch.ready = ch.ready[:0]

	for len(running) > 0 || len(parked) > 0 {
		for len(parked) > 0 {
			p := parked[0]
			if !commitBefore(p, running) {
				break // an earlier shared op may still park; wait
			}
			parked.popMin()
			if p.parkErr != nil {
				err := p.parkErr
				shutdown()
				return nil, err
			}
			st, err := p.stepDecoded()
			if err != nil {
				shutdown()
				return nil, err
			}
			switch st {
			case stepOK:
				release(p)
			case stepBlocked:
				p.blocked = true
			case stepBarrier:
				if err := ch.arriveBarrier(p); err != nil {
					shutdown()
					return nil, err
				}
			case stepHalted:
				// Core finished; it leaves the schedule.
			}
			for _, rc := range ch.ready {
				release(rc)
			}
			ch.ready = ch.ready[:0]
		}
		if len(running) == 0 {
			break
		}
		c := <-parkCh
		unpark(c)
		parked.push(c)
		if stop.Load() {
			// Cancellation parks every window promptly; report the abort
			// at the earliest parked cycle, mirroring the serial loop.
			at := parked[0].time
			shutdown()
			return nil, fmt.Errorf("sim: aborted at cycle %d: %w", at, ctx.Err())
		}
	}
	shutdown()

	if err := ch.deadlockErr(active); err != nil {
		return nil, err
	}
	return ch.collect(), nil
}
