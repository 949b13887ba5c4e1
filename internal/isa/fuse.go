package isa

// This file is the compile-time superop fusion pass. The code generator's
// emitter idioms — LI constant ladders, per-pixel address arithmetic
// feeding CIM_MVM, accumulate/store chains, loop tails of the form
// "SC_ADDI; BNE" — produce long straight-line stretches of micro-ops that
// touch only core-local state. The simulator pays a full scheduler round
// per micro-op (step counter, context poll, cycle-limit check, flat-table
// dispatch, heap compare); fusing each stretch into one superop collapses
// that to a single round per run while the per-instruction semantics,
// stats and energy accounting stay bit-exact, because the fused handler
// replays exactly the component handlers in order.
//
// Fusion never changes what interacts across cores: SEND/RECV/BARRIER/HALT
// and the potentially-global SC_LD/SC_ST/MEMCPY forms (whose operand
// registers decide local vs global at run time) are excluded, so a fused
// run is invisible to the NoC, the mailboxes, the barrier and global
// memory. That property is what lets the simulator's (time, core-id)
// scheduler execute a whole run as one step even when the core's clock
// passes another core's inside it: no other core can observe the order.

// maxFuseRun caps a fused run's length to what SubN can hold.
const maxFuseRun = 255

// fuseBody reports whether a micro-op may start or continue a fused run:
// it must be statically core-local (no NoC, mailbox, barrier, global
// memory or halt effects for any operand values) and fall through to the
// next pc. SC_LD/SC_ST and MEMCPY are excluded because their operand
// registers may point at global memory.
func fuseBody(k Kind) bool {
	switch k {
	case KindNOP, KindScALU, KindScALUI, KindScLUI, KindScMTS, KindScMFS,
		KindVFill, KindCimLoad, KindCimMVM, KindVec:
		return true
	}
	return false
}

// fuseTail reports whether a micro-op may end a fused run without falling
// through: branches and jumps are core-local but transfer control, so they
// are legal only as the last component.
func fuseTail(k Kind) bool { return k == KindBranch || k == KindJMP }

// Fuse rewrites maximal runs (length >= 2) of statically core-local
// micro-ops into superops, in place: the head's Kind becomes KindFusedRun
// with its original kind preserved in Sub and the run length in SubN,
// while interior entries keep their original Kind. A branch into the
// middle of a run therefore executes the remaining components individually
// — bit-identically, just without the dispatch savings — so no
// branch-target analysis is needed and the pass is a pure peephole.
//
// Fuse is idempotent and optional: Predecode output that skips it executes
// identically, only slower. Predecoded programs attached to compiled
// artifacts are fused by the compiler; the simulator fuses whatever it
// predecodes itself.
func Fuse(dec []Decoded) {
	for i := range dec {
		if dec[i].Kind == KindFusedRun {
			return // already fused; interior ops must not become new heads
		}
	}
	for i := 0; i < len(dec); {
		if !fuseBody(dec[i].Kind) {
			i++
			continue
		}
		j := i + 1
		for j < len(dec) && j-i < maxFuseRun {
			k := dec[j].Kind
			if fuseBody(k) {
				j++
				continue
			}
			if fuseTail(k) {
				j++
			}
			break
		}
		if n := j - i; n >= 2 {
			dec[i].Sub = dec[i].Kind
			dec[i].SubN = uint8(n)
			dec[i].Kind = KindFusedRun
		}
		i = j
	}
}
