package compiler

import (
	"cimflow/internal/arch"
	"cimflow/internal/isa"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// accessPattern describes how a consumer walks an input's rows.
type accessPattern struct {
	k, s, p int
}

// patternOf returns the row access pattern of a node with respect to one of
// its inputs.
func patternOf(n *model.Node, inputIdx int) accessPattern {
	switch n.Op {
	case model.OpConv, model.OpDWConv, model.OpMaxPool, model.OpAvgPool:
		return accessPattern{k: n.KH, s: n.Stride, p: n.Pad}
	case model.OpMul:
		if inputIdx == 1 {
			return accessPattern{k: 1, s: 0, p: 0} // single scale row
		}
		return accessPattern{k: 1, s: 1, p: 0}
	case model.OpGlobalAvgPool, model.OpDense:
		return accessPattern{k: -1} // whole input
	default: // pointwise
		return accessPattern{k: 1, s: 1, p: 0}
	}
}

// inputNeed returns the input rows [lo, hi) a consumer replica covering
// output rows [oLo, oHi) requires.
func inputNeed(n *model.Node, inputIdx, oLo, oHi, hin int) (int, int) {
	ap := patternOf(n, inputIdx)
	switch {
	case ap.k < 0:
		return 0, hin
	case ap.s == 0:
		return 0, 1
	}
	lo := oLo*ap.s - ap.p
	hi := (oHi-1)*ap.s - ap.p + ap.k
	if lo < 0 {
		lo = 0
	}
	if hi > hin {
		hi = hin
	}
	return lo, hi
}

// edge is a planned producer-to-consumer connection within one stage.
type edge struct {
	cons     *OpPlan
	inputIdx int
}

// inputSpec carries everything the code generator needs to acquire one
// input operand of an op shard.
type inputSpec struct {
	srcNode *model.Node
	srcOp   *OpPlan // nil when the source is the graph input
	global  bool    // true: fetch from global memory; false: RECV in-stage

	ap             accessPattern
	padVal         int8
	needLo, needHi int // rows required by this replica (static)

	hin, win, cin int
	padW          int32 // padded width (win + 2p for spatial consumers)
	rowBytes      int32 // padW * cin

	full     bool  // full-buffer mode (false = ring)
	buf      int32 // buffer base (full) or ring base
	padLo    int   // first (possibly virtual) padded row held in a full buffer
	bufRows  int32 // rows in the full buffer
	ringMask int32 // ring rows - 1 (ring mode)
	staging  int32 // k-row gather staging (ring mode, k > 1 consumers)
	zeroRow  int32 // pad row (ring mode)
	pieceBuf int32 // scatter staging for partial-channel pieces
	nextIn   uint8 // register holding the next row to acquire (ring mode)
	// consumerTag identifies the edge queue between any two cores: the
	// consumer node id.
	consumerTag int32
}

// stagingBudget is the local memory one staging buffer of an op may take:
// 5/16 of the core's (160 KB of the default 512 KB). A padded input buffer
// up to it is held whole, a larger one streams through a ring
// (Options.FullBufferLimit overrides that bound), and a multi-pass
// convolution sizes its chunk of INT32 partial sums to it.
func stagingBudget(cfg *arch.Config) int32 { return int32(cfg.Core.LocalMemBytes * 5 / 16) }

// rowsOfFull returns the padded row range a full buffer must hold.
func (sp *inputSpec) fullRange(oLo, oHi int) (padLo, padHi int) {
	if sp.ap.k < 0 {
		return 0, sp.hin
	}
	if sp.ap.s == 0 {
		return 0, 1
	}
	padLo = oLo*sp.ap.s - sp.ap.p
	padHi = (oHi-1)*sp.ap.s - sp.ap.p + sp.ap.k
	return padLo, padHi
}

// buildInputSpec resolves one input operand of (op, replica) and allocates
// its buffers in the core arena.
func (gen *generator) buildInputSpec(cg *coregen, op *OpPlan, rI int, inputIdx int) *inputSpec {
	return gen.buildInputSpecWindow(cg, op, rI, inputIdx, 0)
}

// buildInputSpecWindow is buildInputSpec with a minimum ring window: the
// ring must retain at least minWindow input rows simultaneously (used by
// multi-pass convolutions that revisit a chunk of rows once per pass).
func (gen *generator) buildInputSpecWindow(cg *coregen, op *OpPlan, rI, inputIdx, minWindow int) *inputSpec {
	n := op.Node
	src := gen.resolve(n.Inputs[inputIdx])
	srcNode := gen.g.Node(src)
	sp := &inputSpec{
		srcNode:     srcNode,
		ap:          patternOf(n, inputIdx),
		hin:         srcNode.OutShape.H,
		win:         srcNode.OutShape.W,
		cin:         srcNode.OutShape.C,
		consumerTag: int32(n.ID) & 0x3ff,
	}
	if n.Op == model.OpMaxPool {
		sp.padVal = -128
	}
	rep := op.Replicas[rI]
	sp.needLo, sp.needHi = inputNeed(n, inputIdx, rep.RowStart, rep.RowEnd, sp.hin)
	pad := 0
	if sp.ap.k > 0 {
		pad = sp.ap.p
	}
	sp.padW = int32(sp.win + 2*pad)
	sp.rowBytes = sp.padW * int32(sp.cin)

	if src != 0 {
		sp.srcOp = gen.plan.opPlanByNode(src)
		if gen.plan.stageOf(src) != gen.plan.stageOf(n.ID) {
			sp.global = true
		}
	} else {
		sp.global = true
	}

	padLo, padHi := sp.fullRange(rep.RowStart, rep.RowEnd)
	fullBytes := int32(padHi-padLo) * sp.rowBytes
	if fullBytes <= gen.fullLimit || sp.ap.k < 0 || sp.ap.s == 0 {
		sp.full = true
		sp.padLo = padLo
		sp.bufRows = int32(padHi - padLo)
		sp.buf = cg.arenaAlloc(fullBytes)
	} else {
		window := sp.ap.k + sp.ap.s
		if minWindow > window {
			window = minWindow
		}
		ring := int32(2)
		for ring < int32(window) {
			ring <<= 1
		}
		sp.ringMask = ring - 1
		sp.buf = cg.arenaAlloc(ring * sp.rowBytes)
		if sp.ap.k > 1 {
			sp.staging = cg.arenaAlloc(int32(sp.ap.k) * sp.rowBytes)
		}
		sp.zeroRow = cg.arenaAlloc(sp.rowBytes)
	}
	// Scatter staging sized for the widest producer piece.
	maxPiece := int32(sp.cin)
	if sp.srcOp != nil {
		maxPiece = 0
		for _, sh := range sp.srcOp.Replicas[0].Shards {
			if int32(sh.ChanCount) > maxPiece {
				maxPiece = int32(sh.ChanCount)
			}
		}
	}
	sp.pieceBuf = cg.arenaAlloc(int32(sp.win) * maxPiece)
	return sp
}

// producerTables registers the lookup tables describing a producer plan in
// the consumer core's constant pool: row -> replica, replica -> rowStart,
// replica -> rows, and (replica, shard) -> core (in-stage) or piece base
// data for global fetches.
type producerTables struct {
	repTbl      int32 // [H] byte: replica owning each row
	rowStartTbl int32 // [nreps] byte
	rowsTbl     int32 // [nreps] byte
	coreTbl     int32 // [nreps*nsh] byte (in-stage)
	nsh         int
}

func (gen *generator) producerTables(cg *coregen, prod *OpPlan) producerTables {
	h := prod.Node.OutShape.H
	repOf := make([]byte, h)
	nreps := len(prod.Replicas)
	rowStart := make([]byte, nreps)
	rows := make([]byte, nreps)
	nsh := len(prod.Replicas[0].Shards)
	cores := make([]byte, nreps*nsh)
	for ri, rep := range prod.Replicas {
		rowStart[ri] = byte(rep.RowStart)
		rows[ri] = byte(rep.RowEnd - rep.RowStart)
		for y := rep.RowStart; y < rep.RowEnd; y++ {
			repOf[y] = byte(ri)
		}
		for si, sh := range rep.Shards {
			cores[ri*nsh+si] = byte(sh.Core)
		}
	}
	return producerTables{
		repTbl:      cg.pool.table(repOf),
		rowStartTbl: cg.pool.table(rowStart),
		rowsTbl:     cg.pool.table(rows),
		coreTbl:     cg.pool.table(cores),
		nsh:         nsh,
	}
}

// emitAcquireRow emits the acquisition of one input row (index in riReg)
// into the spec's buffer (full mode: absolute row; ring mode: ring slot).
// The row data is gathered from every producer piece, scattering
// partial-channel pieces into the channel-interleaved row layout.
func (gen *generator) emitAcquireRow(cg *coregen, sp *inputSpec, riReg uint8) {
	e := cg.e
	pad := int32(0)
	if sp.ap.k > 0 {
		pad = int32(sp.ap.p)
	}
	// rowAddr = buffer base + slot * rowBytes.
	rowAddr := e.alloc()
	if sp.full {
		e.addConst(rowAddr, riReg, int32(-sp.padLo))
		e.mulConst(rowAddr, rowAddr, sp.rowBytes)
		e.addConst(rowAddr, rowAddr, sp.buf)
	} else {
		e.emit(isa.ALUI(isa.FnAnd, rowAddr, riReg, sp.ringMask))
		e.mulConst(rowAddr, rowAddr, sp.rowBytes)
		e.addConst(rowAddr, rowAddr, sp.buf)
		if pad > 0 {
			// Refill the column padding of the reused ring slot.
			sz := e.constReg(pad * int32(sp.cin))
			e.emit(isa.VFill(rowAddr, sz, sp.padVal))
			t := e.alloc()
			e.addConst(t, rowAddr, (pad+int32(sp.win))*int32(sp.cin))
			e.emit(isa.VFill(t, sz, sp.padVal))
			e.release(t, sz)
		}
	}
	interior := e.alloc()
	e.addConst(interior, rowAddr, pad*int32(sp.cin))

	switch {
	case sp.srcOp == nil:
		// Graph input: one full-channel piece in global memory.
		src := e.alloc()
		e.mulConst(src, riReg, int32(sp.win*sp.cin))
		add := e.constReg(sim.GlobalBase + gen.layout.inputAddr)
		e.emit(isa.ALU(isa.FnAdd, src, src, add))
		sz := e.constReg(int32(sp.win * sp.cin))
		e.emit(isa.MemCpy(interior, src, sz, 0))
		e.release(src, add, sz)
	default:
		tbl := gen.producerTables(cg, sp.srcOp)
		rep := e.alloc()
		t := e.alloc()
		e.addConst(t, riReg, tbl.repTbl)
		e.emit(isa.Instruction{Op: isa.OpScLB, RT: rep, RS: t, Imm: 0})
		rowStart := e.alloc()
		e.addConst(t, rep, tbl.rowStartTbl)
		e.emit(isa.Instruction{Op: isa.OpScLB, RT: rowStart, RS: t, Imm: 0})
		shards := sp.srcOp.Replicas[0].Shards
		for si, sh := range shards {
			pieceRow := int32(sp.win * sh.ChanCount)
			target := interior
			if len(shards) > 1 {
				target = sp.pieceBufReg(e)
			}
			if sp.global {
				// addr = base + rowStart*W*C + rows*W*chanStart + (ri-rowStart)*pieceRow
				rows := e.alloc()
				e.addConst(t, rep, tbl.rowsTbl)
				e.emit(isa.Instruction{Op: isa.OpScLB, RT: rows, RS: t, Imm: 0})
				addr := e.alloc()
				e.mulConst(addr, rowStart, int32(sp.win*sp.cin))
				tmp := e.alloc()
				e.mulConst(tmp, rows, int32(sp.win*sh.ChanStart))
				e.emit(isa.ALU(isa.FnAdd, addr, addr, tmp))
				e.emit(isa.ALU(isa.FnSub, tmp, riReg, rowStart))
				e.mulConst(tmp, tmp, pieceRow)
				e.emit(isa.ALU(isa.FnAdd, addr, addr, tmp))
				base := e.constReg(sim.GlobalBase + int32(sp.srcOp.GlobalOut))
				e.emit(isa.ALU(isa.FnAdd, addr, addr, base))
				sz := e.constReg(pieceRow)
				e.emit(isa.MemCpy(target, addr, sz, 0))
				e.release(rows, addr, tmp, base, sz)
			} else {
				core := e.alloc()
				e.mulConst(core, rep, int32(tbl.nsh))
				e.addConst(core, core, tbl.coreTbl+int32(si))
				e.emit(isa.Instruction{Op: isa.OpScLB, RT: core, RS: core, Imm: 0})
				sz := e.constReg(pieceRow)
				e.emit(isa.Recv(target, sz, core, sp.consumerTag))
				e.release(core, sz)
			}
			if len(shards) > 1 {
				// Scatter [W][pieceChans] into [W][Cin] at ChanStart.
				gen.emitScatter(cg, target, interior, sp.win, sh.ChanCount, sp.cin, sh.ChanStart)
				e.release(target)
			}
		}
		e.release(rep, t, rowStart)
	}
	e.release(rowAddr, interior)
}

// pieceBufReg loads the piece buffer address.
func (sp *inputSpec) pieceBufReg(e *emitter) uint8 {
	r := e.alloc()
	e.li(r, sp.pieceBuf)
	return r
}

// emitScatter copies w pixels of pc channels from a packed piece into the
// channel-interleaved destination row.
func (gen *generator) emitScatter(cg *coregen, src, dstRow uint8, w, pc, cin, chanStart int) {
	e := cg.e
	s := e.alloc()
	d := e.alloc()
	e.emit(isa.ALU(isa.FnAdd, s, src, isa.GZero))
	e.addConst(d, dstRow, int32(chanStart))
	sz := e.constReg(int32(pc))
	e.loop(int32(w), func(uint8) {
		e.emit(isa.MemCpy(d, s, sz, 0))
		e.addConst(s, s, int32(pc))
		e.addConst(d, d, int32(cin))
	})
	e.release(s, d, sz)
}

// emitAcquireAll acquires the full needed row range of an input (full
// buffer mode), pre-filling padding when present.
func (gen *generator) emitAcquireAll(cg *coregen, sp *inputSpec) {
	e := cg.e
	pad := int32(0)
	if sp.ap.k > 0 {
		pad = int32(sp.ap.p)
	}
	needsFill := pad > 0 || sp.padLo < 0 || sp.padLo+int(sp.bufRows) > sp.hin ||
		sp.needLo > sp.padLo || sp.needHi < sp.padLo+int(sp.bufRows)
	if needsFill && sp.bufRows > 0 {
		addr := e.constReg(sp.buf)
		sz := e.constReg(sp.bufRows * sp.rowBytes)
		e.emit(isa.VFill(addr, sz, sp.padVal))
		e.release(addr, sz)
	}
	if sp.needHi <= sp.needLo {
		return
	}
	ri := e.alloc()
	e.li(ri, int32(sp.needLo))
	hi := e.constReg(int32(sp.needHi))
	e.whileLT(ri, hi, func() {
		gen.emitAcquireRow(cg, sp, ri)
		e.emit(isa.ALUI(isa.FnAdd, ri, ri, 1))
	})
	e.release(ri, hi)
}

// emitRingInit prepares ring-mode state: zero row fill and the nextIn
// counter register (kept allocated for the op's lifetime).
func (gen *generator) emitRingInit(cg *coregen, sp *inputSpec) {
	e := cg.e
	zr := e.constReg(sp.zeroRow)
	sz := e.constReg(sp.rowBytes)
	e.emit(isa.VFill(zr, sz, sp.padVal))
	e.release(zr, sz)
	sp.nextIn = e.alloc()
	e.li(sp.nextIn, int32(sp.needLo))
}

// emitRingAdvance acquires all input rows needed before computing output
// row y (register yReg holds the absolute output row).
func (gen *generator) emitRingAdvance(cg *coregen, sp *inputSpec, yReg uint8) {
	e := cg.e
	// bound = min(needHi, y*s - p + k)
	bound := e.alloc()
	e.mulConst(bound, yReg, int32(sp.ap.s))
	e.addConst(bound, bound, int32(sp.ap.k-sp.ap.p))
	hi := e.constReg(int32(sp.needHi))
	e.emit(isa.ALU(isa.FnMin, bound, bound, hi))
	e.release(hi)
	e.whileLT(sp.nextIn, bound, func() {
		gen.emitAcquireRow(cg, sp, sp.nextIn)
		e.emit(isa.ALUI(isa.FnAdd, sp.nextIn, sp.nextIn, 1))
	})
	e.release(bound)
}

// emitStaging copies the k tap rows for output row y into the contiguous
// staging buffer (ring mode), substituting the zero row outside the valid
// range. Returns nothing; staging layout is [k][rowBytes].
func (gen *generator) emitStaging(cg *coregen, sp *inputSpec, yReg uint8) {
	e := cg.e
	ri := e.alloc()
	hin := e.constReg(int32(sp.hin))
	src := e.alloc()
	dst := e.alloc()
	sz := e.constReg(sp.rowBytes)
	for kh := 0; kh < sp.ap.k; kh++ {
		e.mulConst(ri, yReg, int32(sp.ap.s))
		e.addConst(ri, ri, int32(kh-sp.ap.p))
		e.li(src, sp.zeroRow)
		e.ifLT(ri, isa.GZero, nil, func() {
			e.ifLT(ri, hin, func() {
				e.emit(isa.ALUI(isa.FnAnd, src, ri, sp.ringMask))
				e.mulConst(src, src, sp.rowBytes)
				e.addConst(src, src, sp.buf)
			}, nil)
		})
		e.li(dst, sp.staging+int32(kh)*sp.rowBytes)
		e.emit(isa.MemCpy(dst, src, sz, 0))
	}
	e.release(ri, hin, src, dst, sz)
}

// consumerRouting holds the per-consumer send tables of a producer shard.
type consumerRouting struct {
	edge     edge
	firstTbl int32 // [H] byte: first consumer replica needing row y (0xff none)
	lastTbl  int32 // [H] byte: last replica needing row y
	coreTbl  int32 // [nreps*nsh] byte
	nsh      int
	rowBytes int32 // producer piece row size (W * shardChans)
	tag      int32
}

// buildRouting computes the send tables of a producer op toward one
// consumer edge.
func (gen *generator) buildRouting(cg *coregen, prod *OpPlan, shardChans int, ed edge) consumerRouting {
	h := prod.Node.OutShape.H
	first := make([]byte, h)
	last := make([]byte, h)
	for y := 0; y < h; y++ {
		first[y] = 0xff
	}
	cons := ed.cons
	for ri, rep := range cons.Replicas {
		lo, hi := inputNeed(cons.Node, ed.inputIdx, rep.RowStart, rep.RowEnd, h)
		for y := lo; y < hi; y++ {
			if first[y] == 0xff {
				first[y] = byte(ri)
			}
			last[y] = byte(ri)
		}
	}
	nsh := len(cons.Replicas[0].Shards)
	cores := make([]byte, len(cons.Replicas)*nsh)
	for ri, rep := range cons.Replicas {
		for si, sh := range rep.Shards {
			cores[ri*nsh+si] = byte(sh.Core)
		}
	}
	return consumerRouting{
		edge:     ed,
		firstTbl: cg.pool.table(first),
		lastTbl:  cg.pool.table(last),
		coreTbl:  cg.pool.table(cores),
		nsh:      nsh,
		rowBytes: int32(prod.Node.OutShape.W * shardChans),
		tag:      int32(cons.Node.ID) & 0x3ff,
	}
}

// emitDistributeRow sends the finished output row (rowBuf, register) with
// absolute row index yReg to every in-stage consumer core that needs it.
// Global-memory materialization is handled by the caller.
func (gen *generator) emitDistributeRow(cg *coregen, routes []consumerRouting, rowBuf uint8, yReg uint8) {
	e := cg.e
	for _, rt := range routes {
		repReg := e.alloc()
		lastReg := e.alloc()
		t := e.alloc()
		e.addConst(t, yReg, rt.firstTbl)
		e.emit(isa.Instruction{Op: isa.OpScLB, RT: repReg, RS: t, Imm: 0})
		e.addConst(t, yReg, rt.lastTbl)
		e.emit(isa.Instruction{Op: isa.OpScLB, RT: lastReg, RS: t, Imm: 0})
		// 0xff loads as -1 (sign-extended): turn the range empty.
		e.emit(isa.ALUI(isa.FnAdd, lastReg, lastReg, 1))
		e.ifLT(repReg, isa.GZero, func() {
			e.emit(isa.ALU(isa.FnAdd, repReg, isa.GZero, isa.GZero))
			e.emit(isa.ALU(isa.FnAdd, lastReg, isa.GZero, isa.GZero))
		}, nil)
		sz := e.constReg(rt.rowBytes)
		core := e.alloc()
		e.whileLT(repReg, lastReg, func() {
			for si := 0; si < rt.nsh; si++ {
				e.mulConst(core, repReg, int32(rt.nsh))
				e.addConst(core, core, rt.coreTbl+int32(si))
				e.emit(isa.Instruction{Op: isa.OpScLB, RT: core, RS: core, Imm: 0})
				e.emit(isa.Send(rowBuf, sz, core, rt.tag))
			}
			e.emit(isa.ALUI(isa.FnAdd, repReg, repReg, 1))
		})
		e.release(repReg, lastReg, t, sz, core)
	}
}
