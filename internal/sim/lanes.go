package sim

import (
	"fmt"
	"math/bits"
)

// This file is the lane model: one chip simulation advances B independent
// inferences ("lanes", 1 <= B <= LaneCap) through one micro-op stream.
// Registers, program counters, the scoreboard, the scheduler, the NoC and
// all cycle/energy accounting exist once per core — the timing plane. The
// data plane exists once per lane: core.images[l] holds lane l's local
// memory (backed where the program's map declares it: the hole is
// lane-shared, see core), accumulator and gather buffer, Chip.garena[l] its
// private pages of global memory, and a message payload carries every lane's
// bytes strided at the message size. Two things are lane-shared: global
// memory's shared pages, mapped segments that nothing writes (global.go),
// and macro groups — the chip is weight-stationary and a batch runs every
// lane on the same weights, so lanes share lane 0's group buffers until a
// CIM_LOAD gives one lane bytes unlike lane 0's (image.mg).
// Each handler in decoded.go validates and times its micro-op once from the
// shared registers, then applies the data effect to every live lane
// (core.live); a one-lane run is the B = 1 case of the same loops. What
// Reset must clear follows the same split: which pages and macro groups were
// touched is timing-plane state, one dirty record per core (addresses come
// from the shared registers), and Reset clears the pages in the images of
// the widest occupancy run since the last one, not in all B, and the groups
// once, in lane 0's buffers, which every lane then shares again.
//
// Correctness rests on a shared-register invariant: the only instruction
// that can move lane-private data into a register is a scalar load
// (KindScMem). The load handler takes lane 0's value and compares every
// other live lane's against it; while they agree, registers are
// lane-uniform by induction, so every data-dependent control decision —
// branch conditions, register-derived addresses, computed jumps — and all
// timing are identical across lanes. The first disagreeing load flags the
// lane in the chip's sticky divergence mask: the lane stops being live (its
// state is garbage from that point) and the caller re-runs its input in a
// run of its own, so results are always bit-identical to per-input runs.

// MaxLanes bounds the lane capacity of one chip; the divergence mask is a
// single 64-bit word.
const MaxLanes = 64

// image is one lane's data plane of a core.
type image struct {
	local []byte
	// mg holds the per-macro-group weight matrices (rows x groupChans,
	// row-major INT8 values stored as raw bytes, so the MVM row kernel can
	// load eight of them at a time); those the map does not declare are
	// empty. Lane l > 0's group g is either lane 0's buffer (sameBuffer: it
	// reads as lane 0's) or, once a CIM_LOAD gave it a tile unlike lane 0's,
	// a private copy (decCimLoad); Reset and mapping point every lane at
	// lane 0's again. Loads skip lanes that are not live, so such a lane may
	// read lane 0's new weights, but nothing reads a lane that was not live
	// before the next Reset. cimAcc is the unit-level accumulator fed by the
	// inter-macro adder tree, gather the reusable MVM input buffer.
	mg     [][]byte
	cimAcc []int32
	gather []byte
}

// WithLanes allocates lane capacity for n-way batched execution (n <= 1
// means one lane; n is capped by MaxLanes at construction). Capacity is
// occupancy-independent: a chip built for 8 lanes runs any batch of 1-8
// (SetLanes) without reallocation.
func WithLanes(n int) ChipOption {
	return func(ch *Chip) { ch.lanesCap = n }
}

// LaneCap returns the chip's allocated lane capacity.
func (ch *Chip) LaneCap() int { return ch.lanesCap }

// SetLanes sets the occupancy of the next Run to b lanes and clears the
// divergence mask. Sessions call it after Reset/ZeroGlobal when staging a
// batch onto a pooled chip.
func (ch *Chip) SetLanes(b int) error {
	if b < 1 || b > ch.lanesCap {
		return fmt.Errorf("sim: %d lanes exceed chip capacity %d", b, ch.lanesCap)
	}
	ch.activeLanes = b
	ch.divergedMask = 0
	return nil
}

// DivergedLanes returns the lanes (ascending) that diverged during the last
// Run; their outputs are invalid and must be re-run on their own.
func (ch *Chip) DivergedLanes() []int {
	mask := ch.divergedMask
	if mask == 0 {
		return nil
	}
	out := make([]int, 0, bits.OnesCount64(mask))
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, bits.TrailingZeros64(mask))
	}
	return out
}

// live returns the bitmap of lanes whose data plane the next micro-op must
// update: the run's occupancy minus the lanes that have diverged. Handlers
// walk it lowest bit first, so lane 0 — which never diverges, being the
// lane the others are compared against — is always visited first:
//
//	for m := c.live(); m != 0; m &= m - 1 {
//		l := bits.TrailingZeros64(m)
func (c *core) live() uint64 {
	ch := c.chip
	return ^uint64(0) >> (64 - uint(ch.activeLanes)) &^ ch.divergedMask
}

// sameBuffer reports whether macro groups a and b are one buffer, or both
// empty: whether a lane holding a reads as one holding b.
func sameBuffer(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
