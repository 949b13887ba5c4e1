// Package sim is the CIMFlow cycle-accurate simulator: it executes compiled
// per-core instruction streams functionally (real INT8/INT32 data) while
// modeling a three-stage pipeline per core, fine-grained unit pipelining
// with scoreboard interlocks, a contention-aware mesh NoC and a shared
// global memory, producing cycle, energy and utilization reports.
//
// Scheduling is conservative discrete-event: the core with the smallest
// local time always steps next (ties broken by core id), which keeps NoC
// link reservations in global time order and makes simulations fully
// deterministic. Cores block on RECV (until the matching message is
// delivered) and on BARRIER (until all cores arrive). Run is that one loop
// on the caller's goroutine; parallelism lives above the chip, across DSE
// points and pooled chips, and within it across lanes (lanes.go).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
	"cimflow/internal/noc"
)

// Program is the compiled instruction stream of one core.
type Program struct {
	Core int
	Code []isa.Instruction
	// Decoded optionally carries the predecoded micro-op form of Code
	// (isa.Predecode). The compiler attaches it at compile time so every
	// chip built from the same artifact shares one immutable decoded
	// program; when absent (or out of sync with Code), LoadProgram
	// predecodes on the spot.
	Decoded []isa.Decoded
	// Map is the memory the program touches; nil is the whole core.
	Map *MemMap
}

// MemMap is the memory of its core a program touches, as the compiler lays
// it out: local memory's constant pool [0, PoolEnd) and arena [ArenaMin,
// LocalMemBytes), and the macro groups set in Groups. Anything else is an
// ErrUnmapped fault: the compiler placed something it did not declare.
type MemMap struct {
	PoolEnd, ArenaMin int32
	Groups            uint32
}

// Check reports whether m maps a core of cfg: a pool ending at or below the
// arena, which starts inside local memory, and groups the core has.
func (m MemMap) Check(cfg *arch.Config) error {
	if m.PoolEnd < 0 || m.PoolEnd > m.ArenaMin || int(m.ArenaMin) > cfg.Core.LocalMemBytes ||
		uint64(m.Groups)>>cfg.Core.NumMacroGroups != 0 {
		return fmt.Errorf("memory map %+v does not fit %d bytes of local memory and %d macro groups",
			m, cfg.Core.LocalMemBytes, cfg.Core.NumMacroGroups)
	}
	return nil
}

// ErrUnmapped is an access outside the program's MemMap, and ErrCycleLimit
// a Run past its CycleLimit.
var (
	ErrUnmapped   = errors.New("outside the declared memory map")
	ErrCycleLimit = errors.New("cycle limit")
)

// GlobalSegment initializes a region of global memory before execution.
type GlobalSegment struct {
	Addr int // offset within global memory (not including GlobalBase)
	Data []byte
}

// message is an in-flight or delivered core-to-core transfer. The payload
// carries every lane of the run strided at the message size: lane l's bytes
// live at [l*size, (l+1)*size).
type message struct {
	payload []byte
	arrival int64
}

type msgKey struct {
	src, dst int
	tag      int32
}

// msgQueue is one (src, dst, tag) mailbox slot: a slice-backed FIFO whose
// drained entries are cleared (so delivered payload buffers are not pinned
// by the backing array) and whose storage is recycled once empty, keeping
// the steady-state messaging path allocation-free after warm-up.
type msgQueue struct {
	msgs []message
	head int
}

func (q *msgQueue) empty() bool { return q.head >= len(q.msgs) }

func (q *msgQueue) push(m message) { q.msgs = append(q.msgs, m) }

func (q *msgQueue) pop() message {
	m := q.msgs[q.head]
	q.msgs[q.head] = message{} // clear the drained entry
	q.head++
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	return m
}

// payloadClass is the size class of an n-byte payload: buffers of class k
// have capacity 1<<k, the smallest power of two that holds n.
func payloadClass(n int32) int { return bits.Len32(uint32(max(n, 1) - 1)) }

// getPayload returns an n-byte payload buffer, the last one returned to
// its size class when there is one.
func (ch *Chip) getPayload(n int32) []byte {
	k := payloadClass(n)
	free := ch.payloads[k]
	if len(free) == 0 {
		ch.payloadAllocBytes += 1 << k
		return make([]byte, n, 1<<k)
	}
	b := free[len(free)-1]
	ch.payloads[k] = free[:len(free)-1]
	ch.pooledBytes -= cap(b)
	return b[:n]
}

// putPayload returns a payload buffer to its size class, or drops it when
// pooling it would hold more than payloadBound bytes.
func (ch *Chip) putPayload(b []byte) {
	n := cap(b)
	if ch.pooledBytes+n > ch.payloadBound {
		ch.payloadDroppedBytes += n
		return
	}
	k := payloadClass(int32(n))
	ch.payloads[k] = append(ch.payloads[k], b)
	ch.pooledBytes += n
}

// Chip is one simulation instance.
type Chip struct {
	cfg   *arch.Config
	mesh  *noc.Mesh
	cores []*core

	// Global memory (global.go): gsize bytes in pages, gpage[p] the slot of
	// page p in every lane's arena garena[l], or a negative mark for a page
	// shared by all lanes, read through gview[p]: a mapped segment's bytes
	// or the edge buffer gedge. grun[p] is the first page past p that does
	// not continue its run; mapped is whether MapGlobal built the table.
	gsize  int
	mapped bool
	gpage  []int32
	grun   []int32
	gview  [][]byte
	gedge  []byte
	garena [][]byte

	mailbox map[msgKey]*msgQueue
	// payloads[k] is the LIFO free list of message buffers of capacity
	// 1<<k: SEND takes from it, RECV and Reset give back to it. It survives
	// Reset, so after one run every later run of the same traffic finds all
	// its buffers here. pooledBytes is what the lists hold; payloadBound
	// caps it at the chip's aggregate local memory in logical size (NumCores
	// x LocalMemBytes, 32 MB in the default configuration), however little
	// of it the cores back: messages are sized by what programs send.
	// payloadAllocBytes and payloadDroppedBytes count what getPayload
	// allocated and putPayload dropped at the bound; only the test hook
	// CheckPayloadPool reads them.
	payloads            [32][][]byte
	pooledBytes         int
	payloadBound        int
	payloadAllocBytes   int
	payloadDroppedBytes int
	ready               coreHeap

	// barrier bookkeeping: arrivals for the currently forming barrier.
	barrierWait  []*core
	barrierMax   int64
	barrierID    uint16
	barrierArmed bool

	// Lane state (see lanes.go). lanesCap is the allocated lane capacity
	// (WithLanes); activeLanes is the occupancy of the Run in flight
	// (SetLanes); dirtyLanes is the widest occupancy of any Run since the
	// last Reset, the lanes Reset has to clear; divergedMask is the sticky
	// per-lane divergence bitmap.
	lanesCap     int
	activeLanes  int
	dirtyLanes   int
	divergedMask uint64

	// CycleLimit aborts runaway simulations; 0 means the default.
	CycleLimit int64
}

// ChipOption configures a Chip at construction time.
type ChipOption func(*Chip)

// WithWorkers does nothing: Run has one scheduler, the serial loop.
//
// Deprecated: the windowed parallel scheduler it sized was slower than the
// serial loop on every zoo model (EXPERIMENTS.md) and is gone. Kept only
// because the frozen bench/layers.go calls it; it goes with that call in the
// next benchmark PR.
func WithWorkers(int) ChipOption {
	return func(*Chip) {}
}

// NewChip builds a chip with idle cores and no memory: LoadProgram backs a
// core's local memory and macro groups, MapGlobal or EnsureGlobal global
// memory.
func NewChip(cfg *arch.Config, opts ...ChipOption) (*Chip, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	ch := &Chip{mailbox: make(map[msgKey]*msgQueue, 64)}
	for _, opt := range opts {
		opt(ch)
	}
	ch.lanesCap = max(ch.lanesCap, 1)
	if ch.lanesCap > MaxLanes {
		return nil, fmt.Errorf("sim: %d lanes exceed the %d-lane divergence mask", ch.lanesCap, MaxLanes)
	}
	ch.garena = make([][]byte, ch.lanesCap)
	ch.configure(cfg)
	return ch, nil
}

// checkConfig rejects the configurations a chip cannot be built for.
func checkConfig(cfg *arch.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Core.NumMacroGroups > 32 {
		return fmt.Errorf("sim: %d macro groups exceed the 32-bit MG mask", cfg.Core.NumMacroGroups)
	}
	if cfg.Core.LocalMemBytes > GlobalBase {
		return fmt.Errorf("sim: %d bytes of local memory reach past the global window at %d", cfg.Core.LocalMemBytes, GlobalBase)
	}
	return nil
}

// Retarget makes the chip read as the one NewChip(cfg) builds with the same
// lane capacity, in every byte and every size: it is reset, its memory
// unmapped and its programs dropped, and every buffer is kept for the next
// LoadProgram, MapGlobal or EnsureGlobal to reslice — memories,
// accumulators, the dirty record, the mailboxes, and the payload free lists
// trimmed to cfg's bound. CycleLimit stays. On error the chip is unchanged.
func (ch *Chip) Retarget(cfg *arch.Config) error {
	if err := checkConfig(cfg); err != nil {
		return err
	}
	ch.Reset()
	ch.configure(cfg)
	return nil
}

// configure sizes a chip at power-on state for cfg: the mesh, the payload
// bound, global memory and the cores. Every buffer it keeps is zero to its
// capacity — nothing writes past a buffer's length, and Reset and Retarget
// clear what runs wrote — so resliced it reads as a new one. Memory keeps
// its backing but is declared empty, as NewChip's is.
func (ch *Chip) configure(cfg *arch.Config) {
	ch.cfg = cfg
	ch.mesh = noc.New(cfg)
	ch.payloadBound = cfg.NumCores() * cfg.Core.LocalMemBytes
	if ch.pooledBytes > ch.payloadBound {
		// Pool again what fits the new bound, small buffers first.
		pooled := ch.payloads
		ch.payloads, ch.pooledBytes = [32][][]byte{}, 0
		for _, free := range pooled {
			for _, b := range free {
				ch.putPayload(b)
			}
		}
	}
	ch.activeLanes = 1
	ch.EnsureGlobal(0)
	n := cfg.NumCores()
	ch.ready = fit(ch.ready, n)[:0]
	for len(ch.cores) < n {
		ch.cores = append(ch.cores, newCore(len(ch.cores), ch))
	}
	clear(ch.cores[n:])
	ch.cores = ch.cores[:n]
	for _, c := range ch.cores {
		c.configure(cfg)
	}
}

// LoadProgram installs a core's instruction stream, checking it fits the
// instruction memory, and lowers it to its predecoded micro-op form — the
// form the core executes — so illegal encodings fail at load time instead of
// mid-simulation. A caller-supplied p.Decoded is trusted to be
// isa.Predecode(p.Code) — the compiler attaches exactly that, letting every
// chip built from one artifact share one immutable decoded program — and is
// ignored when its length does not match. It then backs what p.Map declares,
// the whole core for a nil one (core.mapMemory).
func (ch *Chip) LoadProgram(p Program) error {
	if p.Core < 0 || p.Core >= len(ch.cores) {
		return fmt.Errorf("sim: program for core %d out of range", p.Core)
	}
	if size := len(p.Code) * 4; size > ch.cfg.Core.InstMemBytes {
		return fmt.Errorf("sim: core %d program is %d bytes, instruction memory holds %d",
			p.Core, size, ch.cfg.Core.InstMemBytes)
	}
	m := p.Map
	if m == nil {
		m = &MemMap{Groups: uint32(uint64(1)<<ch.cfg.Core.NumMacroGroups - 1)}
	}
	if err := m.Check(ch.cfg); err != nil {
		return fmt.Errorf("sim: core %d: %w", p.Core, err)
	}
	dec := p.Decoded
	if len(dec) != len(p.Code) {
		var err error
		dec, err = isa.Predecode(p.Code)
		if err != nil {
			return fmt.Errorf("sim: core %d: %w", p.Core, err)
		}
		isa.Fuse(dec)
	}
	c := ch.cores[p.Core]
	c.code, c.prog = p.Code, dec
	c.mapMemory(*m)
	return nil
}

// LoadPrograms installs a whole chip's instruction streams, replacing every
// program loaded before: a core that ps does not name is left without one and
// halts at once in the next Run. After Reset, with global memory re-staged,
// this makes a chip that ran one program the chip NewChip + LoadProgram would
// build for another of the same architecture (Retarget first serves one of
// another), so a caller running many programs builds the chip once.
func (ch *Chip) LoadPrograms(ps []Program) error {
	for _, c := range ch.cores {
		c.code, c.prog = nil, nil
	}
	for _, p := range ps {
		if err := ch.LoadProgram(p); err != nil {
			return err
		}
	}
	return nil
}

// checkSpan reports whether [addr, addr+size) lies inside an n-byte memory,
// rejecting negative sizes and spans whose end would overflow.
func checkSpan(what string, addr, size, n int) error {
	if addr < 0 || size < 0 || addr > n-size {
		return fmt.Errorf("sim: %s span [%d, %d+%d) out of bounds (%d bytes)", what, addr, addr, size, n)
	}
	return nil
}

// Reset returns the chip to its pre-run state while preserving the loaded
// programs and the contents of global memory: core pipelines, registers,
// local memories, macro-group weights, accumulators, mailboxes, barrier
// bookkeeping and NoC reservations are all cleared. Weights staged in
// global memory survive, which is what lets a pooled chip serve many
// inferences after a single weight load; callers refresh the input and
// activation regions (ZeroGlobal + InitGlobal) before the next Run.
//
// Local memories and macro groups are cleared by record, not by size: each
// core notes the 4 KB pages and the macro groups its operations touch, the
// chip the widest lane occupancy it ran, and Reset zeroes exactly those
// pages in those lanes and those groups once per chip, in lane 0's buffers,
// which every lane shares again afterwards (see core.reset). Nothing but Run
// writes them, so everything outside the record
// still holds the zeros it was allocated with, and the chip is byte for byte
// the one NewChip built; the cost is what the runs since the last Reset
// touched, not what the chip allocates.
func (ch *Chip) Reset() {
	// Mailbox keys and queue storage are kept for the next run; a message
	// an aborted run left undelivered returns its payload to the pool.
	for _, q := range ch.mailbox {
		for i := q.head; i < len(q.msgs); i++ {
			ch.putPayload(q.msgs[i].payload)
			q.msgs[i] = message{}
		}
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	ch.divergedMask = 0
	ch.ready = ch.ready[:0]
	ch.barrierWait = ch.barrierWait[:0]
	ch.barrierMax = 0
	ch.barrierID = 0
	ch.barrierArmed = false
	ch.mesh.Reset()
	for _, c := range ch.cores {
		c.reset(ch.dirtyLanes)
	}
	ch.dirtyLanes = 0
}

// CheckPayloadPool is a test and debug hook with no production caller: it
// reports the first break in the payload pool's accounting, or nil. When no
// message is in flight — after Reset, or after a run that finished — every
// buffer getPayload ever allocated is either in the free list of its size
// class, once, or was dropped at the byte bound; and the lists hold no more
// than the bound. It is exported, not in export_test.go, because the pooled
// session tests of internal/core call it on a session's chip.
func (ch *Chip) CheckPayloadPool() error {
	seen := make(map[*byte]bool)
	held := 0
	for k, free := range ch.payloads {
		for _, b := range free {
			if cap(b) != 1<<k {
				return fmt.Errorf("sim: a %d-byte payload buffer sits in size class %d", cap(b), k)
			}
			p := &b[:1][0]
			if seen[p] {
				return fmt.Errorf("sim: a payload buffer of class %d is pooled twice", k)
			}
			seen[p] = true
			held += cap(b)
		}
	}
	switch {
	case held != ch.pooledBytes:
		return fmt.Errorf("sim: payload free lists hold %d bytes, the pool counts %d", held, ch.pooledBytes)
	case held > ch.payloadBound:
		return fmt.Errorf("sim: payload pool holds %d bytes, bound %d", held, ch.payloadBound)
	case held != ch.payloadAllocBytes-ch.payloadDroppedBytes:
		return fmt.Errorf("sim: %d payload bytes allocated, %d dropped, %d pooled: %d unaccounted for",
			ch.payloadAllocBytes, ch.payloadDroppedBytes, held, ch.payloadAllocBytes-ch.payloadDroppedBytes-held)
	}
	return nil
}

// ReadLocal copies a region of a core's lane-0 local memory (for tests and
// debug).
func (ch *Chip) ReadLocal(coreID, addr, size int) ([]byte, error) {
	if coreID < 0 || coreID >= len(ch.cores) {
		return nil, fmt.Errorf("sim: core %d out of range", coreID)
	}
	c := ch.cores[coreID]
	if err := checkSpan("local", addr, size, int(c.localSize)); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	c.readLocal(out, 0, int32(addr))
	return out, nil
}

// deliver enqueues a message and wakes a receiver blocked on it.
func (ch *Chip) deliver(src, dst int, tag int32, payload []byte, arrival int64) {
	k := msgKey{src, dst, tag}
	q := ch.mailbox[k]
	if q == nil {
		q = &msgQueue{}
		ch.mailbox[k] = q
	}
	q.push(message{payload: payload, arrival: arrival})
	rx := ch.cores[dst]
	if rx.blockSrc == src && rx.blockTag == tag && rx.blocked {
		rx.blocked = false
		if arrival > rx.time {
			rx.time = arrival
		}
		ch.ready.push(rx)
	}
}

// peek returns the oldest matching message without removing it.
func (ch *Chip) peek(src, dst int, tag int32) (message, bool) {
	q := ch.mailbox[msgKey{src, dst, tag}]
	if q == nil || q.empty() {
		return message{}, false
	}
	return q.msgs[q.head], true
}

// pop removes the oldest matching message, clearing the drained slot. The
// caller owns the returned payload and recycles it via putPayload once the
// contents have been copied out.
func (ch *Chip) pop(src, dst int, tag int32) message {
	return ch.mailbox[msgKey{src, dst, tag}].pop()
}

// coreHeap is a binary min-heap of runnable cores ordered by (time, id) —
// the conservative discrete-event schedule. It is hand-rolled rather than
// container/heap so the scheduler's per-step sift operations compare cores
// directly instead of going through interface dispatch.
type coreHeap []*core

// before reports whether core a is scheduled ahead of core b.
func before(a, b *core) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.id < b.id
}

func (h *coreHeap) push(c *core) {
	q := append(*h, c)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *coreHeap) popMin() *core {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && before(q[l], q[least]) {
			least = l
		}
		if r < n && before(q[r], q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// ctxCheckSteps is how many scheduler steps pass between context polls in
// Run. Each step executes at most one instruction, so at simulator speeds
// of millions of steps per second a cancelled context aborts the run
// within milliseconds while the poll stays off the hot path.
const ctxCheckSteps = 1 << 13

// Run executes all loaded programs to completion and returns the report.
// The context is checked every ctxCheckSteps scheduler steps: cancelling it
// aborts a long simulation mid-flight with an error wrapping ctx.Err().
func (ch *Chip) Run(ctx context.Context) (*Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	limit := ch.CycleLimit
	if limit == 0 {
		limit = 200_000_000_000
	}
	ch.ready = ch.ready[:0]
	for _, c := range ch.cores {
		if len(c.code) > 0 {
			ch.ready.push(c)
		} else {
			c.halted = true
		}
	}
	active := len(ch.ready)
	if active == 0 {
		return nil, fmt.Errorf("sim: no programs loaded")
	}
	ch.dirtyLanes = max(ch.dirtyLanes, ch.activeLanes)

	var steps uint64
	for len(ch.ready) > 0 {
		c := ch.ready.popMin()
	run:
		// Keep stepping the popped core for as long as it remains the
		// schedule minimum — during serialized phases (one runnable core,
		// the rest blocked on RECV) this bypasses the heap entirely. The
		// instruction order is identical to pop-push scheduling: the loop
		// only continues when popMin would have returned this core again.
		for {
			steps++
			if steps%ctxCheckSteps == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sim: aborted at cycle %d: %w", c.time, err)
				}
			}
			if c.time > limit {
				return nil, fmt.Errorf("sim: core %d exceeded the %w %d at pc %d", c.id, ErrCycleLimit, limit, c.pc)
			}
			st, err := c.stepDecoded()
			if err != nil {
				return nil, err
			}
			switch st {
			case stepOK:
				if len(ch.ready) > 0 && before(ch.ready[0], c) {
					ch.ready.push(c)
					break run
				}
			case stepBlocked:
				c.blocked = true
				break run
			case stepBarrier:
				if err := ch.arriveBarrier(c); err != nil {
					return nil, err
				}
				break run
			case stepHalted:
				// Core finished; it stays out of the heap.
				break run
			}
		}
	}

	// All cores must have halted; anything blocked is a deadlock.
	if err := ch.deadlockErr(active); err != nil {
		return nil, err
	}
	return ch.collect(), nil
}

// deadlockErr reports the cores still blocked after the schedule drained,
// or nil when every core with a program halted. The report lists stuck
// cores in ascending core-id order — sorted explicitly rather than relying
// on ch.cores's layout, so the report is stable for any core ordering.
func (ch *Chip) deadlockErr(active int) error {
	var ids []int
	for _, c := range ch.cores {
		if !c.halted && len(c.code) > 0 {
			ids = append(ids, c.id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	stuck := make([]string, 0, len(ids))
	for _, id := range ids {
		c := ch.cores[id]
		state := "blocked"
		if c.blocked {
			state = fmt.Sprintf("recv(src=%d, tag=%d)", c.blockSrc, c.blockTag)
		} else if c.inBarrier {
			state = fmt.Sprintf("barrier(%d)", c.barrierID)
		}
		stuck = append(stuck, fmt.Sprintf("core %d pc %d %s", c.id, c.pc, state))
	}
	return fmt.Errorf("sim: deadlock, %d of %d cores stuck: %v", len(stuck), active, stuck)
}

// arriveBarrier registers a core at the chip-wide barrier and releases all
// cores once the last one arrives.
func (ch *Chip) arriveBarrier(c *core) error {
	if ch.barrierArmed && ch.barrierID != c.barrierID {
		return fmt.Errorf("sim: core %d entered barrier %d while barrier %d is forming",
			c.id, c.barrierID, ch.barrierID)
	}
	ch.barrierArmed = true
	ch.barrierID = c.barrierID
	c.inBarrier = true
	ch.barrierWait = append(ch.barrierWait, c)
	if c.time > ch.barrierMax {
		ch.barrierMax = c.time
	}
	participants := 0
	for _, cc := range ch.cores {
		if len(cc.code) > 0 && !cc.halted {
			participants++
		}
	}
	if len(ch.barrierWait) < participants {
		return nil
	}
	release := ch.barrierMax + 1
	for _, cc := range ch.barrierWait {
		cc.time = release
		cc.inBarrier = false
		ch.ready.push(cc)
	}
	ch.barrierWait = ch.barrierWait[:0]
	ch.barrierMax = 0
	ch.barrierArmed = false
	return nil
}

// collect aggregates per-core statistics into the chip report.
func (ch *Chip) collect() *Stats {
	s := &Stats{}
	for _, c := range ch.cores {
		if c.stats.HaltCycle > s.Cycles {
			s.Cycles = c.stats.HaltCycle
		}
	}
	leak := ch.cfg.Energy.CoreLeakagePJPerCycle
	for _, c := range ch.cores {
		c.stats.Energy.LeakagePJ = leak * float64(s.Cycles)
		s.Instructions += c.stats.Instructions
		s.MACs += c.stats.MACs
		s.Energy.add(&c.stats.Energy)
		s.Cores = append(s.Cores, c.stats)
	}
	s.Energy.NoCPJ = ch.mesh.TotalEnergyPJ
	s.NoCBytes = ch.mesh.TotalBytes
	s.NoCByteHops = ch.mesh.TotalByteHops
	s.GlobalBytes = ch.mesh.MemBytes
	s.Lanes = ch.activeLanes
	s.DivergedLanes = bits.OnesCount64(ch.divergedMask)
	return s
}
