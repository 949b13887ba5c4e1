package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cimflow/internal/arch"
	"cimflow/internal/sim"
)

// Pool holds the simulated chips its sessions run on and bounds how many
// exist at once: a chip holds, per lane, the local memory, macro groups and
// global memory its programs touched — megabytes on a zoo model — so live
// chips are what a serving or sweep loop's memory follows. Every run is byte-identical to one on a fresh chip. A Pool is safe
// for concurrent use; its zero value is ready and bounded by GOMAXPROCS.
type Pool struct {
	bound int // live chips at most; 0 means GOMAXPROCS

	mu     sync.Mutex
	live   int       // chips built and not dropped: idle plus in use
	idle   []*pooled // in release order, oldest first
	closed bool
	// freed is closed, and cleared, when a chip is released or dropped; nil
	// while no caller waits.
	freed chan struct{}
}

// pooled is one chip of a pool and what it was last staged for.
type pooled struct {
	ch    *sim.Chip
	owner uint64       // the id of the session it was last staged for
	cfg   *arch.Config // that session's architecture
	// span is that session's global layout: compiled programs stay inside
	// theirs, so past span the chip's global memory is zero.
	span int
}

// sessionIDs numbers sessions for chip affinity.
var sessionIDs atomic.Uint64

// NewPool returns a pool of at most bound live chips (<= 0 means
// GOMAXPROCS).
func NewPool(bound int) *Pool { return &Pool{bound: bound} }

// Bound reports the most chips the pool keeps live at once.
func (p *Pool) Bound() int {
	if p.bound > 0 {
		return p.bound
	}
	return runtime.GOMAXPROCS(0)
}

// Idle reports how many chips wait in the pool for their next run.
func (p *Pool) Idle() int { return p.count(func(*pooled) bool { return true }) }

// count reports how many idle chips satisfy f.
func (p *Pool) count(f func(*pooled) bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.idle {
		if f(c) {
			n++
		}
	}
	return n
}

// Live reports how many chips the pool holds, idle or running.
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// Close drops every idle chip and fails later acquires with ErrClosed;
// chips released after it are dropped. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.drop(func(*pooled) bool { return true })
}

// How take hands a chip over: as it is, to restage, or to build.
const (
	takeOwn = iota
	takeOther
	takeNew
)

// take removes a chip for s, preferring an idle chip last staged for s, then
// the newest idle one of s's lane capacity — a sweep worker's own, which it
// just released — then a new one (a pooled with no ch) while under the
// bound, then a new one in place of the oldest idle chip. With every chip in
// use it waits for one, or for ctx.
func (p *Pool) take(ctx context.Context, s *Session) (*pooled, int, error) {
	lanes := s.opt.SimLanes
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed {
		if i := slices.IndexFunc(p.idle, func(c *pooled) bool { return c.owner == s.id }); i >= 0 {
			return p.remove(i), takeOwn, nil
		}
		for i := len(p.idle) - 1; i >= 0; i-- {
			if p.idle[i].ch.LaneCap() == lanes {
				return p.remove(i), takeOther, nil
			}
		}
		if p.live < p.Bound() {
			p.live++
			return new(pooled), takeNew, nil
		}
		if len(p.idle) > 0 {
			p.remove(0) // replaced one for one: live stays
			return new(pooled), takeNew, nil
		}
		if p.freed == nil {
			p.freed = make(chan struct{})
		}
		freed := p.freed
		p.mu.Unlock()
		select {
		case <-freed:
			p.mu.Lock()
		case <-ctx.Done():
			p.mu.Lock()
			return nil, 0, ctx.Err()
		}
	}
	return nil, 0, ErrClosed
}

// remove takes idle[i] out of the pool; p.mu is held.
func (p *Pool) remove(i int) *pooled {
	c := p.idle[i]
	p.idle = slices.Delete(p.idle, i, i+1)
	return c
}

// put returns a taken chip: idle for its next run when keep is set and the
// pool is open, dropped otherwise.
func (p *Pool) put(c *pooled, keep bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if keep && !p.closed {
		p.idle = append(p.idle, c)
	} else {
		p.live--
	}
	p.notify()
}

// drop drops the idle chips f selects.
func (p *Pool) drop(f func(*pooled) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	p.idle = slices.DeleteFunc(p.idle, f)
	p.live -= n - len(p.idle)
	p.notify()
}

// notify wakes every waiting take; p.mu is held.
func (p *Pool) notify() {
	if p.freed != nil {
		close(p.freed)
		p.freed = nil
	}
}
