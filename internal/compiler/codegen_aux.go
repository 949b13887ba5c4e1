package compiler

import (
	"fmt"

	"cimflow/internal/isa"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// emitDepthwise lowers a depthwise convolution shard on the vector unit:
// per-tap INT8 multiply-accumulate into an INT32 accumulator row, then
// requantization. Stride-1 layers with modest widths use row-level VMAC8
// over pre-tiled weights; others fall back to per-pixel VMAC8.
func (gen *generator) emitDepthwise(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	rep := op.Replicas[rI]
	sh := rep.Shards[sI]
	if sh.ChanStart != 0 || sh.ChanCount != n.Cout {
		return fmt.Errorf("depthwise shards must hold full channels")
	}
	c := n.Cout
	k := n.KH
	taps := k * n.KW
	outW := n.OutShape.W

	sp := gen.buildInputSpec(cg, op, rI, 0)
	// Tap weights from global memory.
	tapW := cg.arenaAlloc(int32(taps * c))
	{
		src := e.constReg(sim.GlobalBase + gen.layout.weightAddr[n.ID])
		dst := e.constReg(tapW)
		sz := e.constReg(int32(taps * c))
		e.emit(isa.MemCpy(dst, src, sz, 0))
		e.release(src, dst, sz)
	}
	rowMode := n.Stride == 1 && taps*outW*c <= 64<<10
	var tiled int32
	if rowMode {
		// Tile each tap's channel vector across the row width once.
		tiled = cg.arenaAlloc(int32(taps * outW * c))
		src := e.alloc()
		dst := e.alloc()
		sz := e.constReg(int32(c))
		for t := 0; t < taps; t++ {
			e.li(src, tapW+int32(t*c))
			e.li(dst, tiled+int32(t*outW*c))
			e.loop(int32(outW), func(uint8) {
				e.emit(isa.MemCpy(dst, src, sz, 0))
				e.addConst(dst, dst, int32(c))
			})
		}
		e.release(src, dst, sz)
	}
	acc := cg.arenaAlloc(int32(4 * outW * c)) // INT32 accumulator row

	e.setSReg(isa.SRegQuantMul, n.QMul)
	e.setSReg(isa.SRegQuantShift, int32(n.QShift))

	if sp.full {
		gen.emitAcquireAll(cg, sp)
	} else {
		gen.emitRingInit(cg, sp)
	}
	y := e.alloc()
	e.li(y, int32(rep.RowStart))
	yEnd := e.constReg(int32(rep.RowEnd))
	inRow := e.alloc()
	e.whileLT(y, yEnd, func() {
		if sp.full {
			e.mulConst(inRow, y, int32(n.Stride)*sp.rowBytes)
			e.addConst(inRow, inRow, sp.buf+int32(-n.Pad-sp.padLo)*sp.rowBytes)
		} else {
			gen.emitRingAdvance(cg, sp, y)
			gen.emitStaging(cg, sp, y)
			e.li(inRow, sp.staging)
		}
		// Clear the accumulator row.
		accR := e.constReg(acc)
		sz := e.constReg(int32(4 * outW * c))
		e.emit(isa.VFill(accR, sz, 0))
		e.release(sz)
		if rowMode {
			a := e.alloc()
			b := e.alloc()
			ln := e.constReg(int32(outW * c))
			for kh := 0; kh < k; kh++ {
				for kw := 0; kw < n.KW; kw++ {
					e.addConst(a, inRow, int32(kh)*sp.rowBytes+int32(kw*c))
					e.li(b, tiled+int32((kh*n.KW+kw)*outW*c))
					e.emit(isa.Vec(isa.VFnMac8, accR, a, b, ln))
				}
			}
			e.release(a, b, ln)
		} else {
			x := e.alloc()
			e.li(x, 0)
			xEnd := e.constReg(int32(outW))
			a := e.alloc()
			b := e.alloc()
			d := e.alloc()
			ln := e.constReg(int32(c))
			e.whileLT(x, xEnd, func() {
				e.mulConst(d, x, int32(4*c))
				e.emit(isa.ALU(isa.FnAdd, d, d, accR))
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < n.KW; kw++ {
						e.mulConst(a, x, int32(n.Stride*c))
						e.addConst(a, a, int32(kh)*sp.rowBytes+int32(kw*c))
						e.emit(isa.ALU(isa.FnAdd, a, a, inRow))
						e.li(b, tapW+int32((kh*n.KW+kw)*c))
						e.emit(isa.Vec(isa.VFnMac8, d, a, b, ln))
					}
				}
				e.emit(isa.ALUI(isa.FnAdd, x, x, 1))
			})
			e.release(x, xEnd, a, b, d, ln)
		}
		// Requantize the accumulator row into the INT8 output row.
		out := e.constReg(rowBuf)
		ln := e.constReg(int32(outW * c))
		e.emit(isa.Vec(isa.VFnQnt, out, accR, isa.GZero, ln))
		if n.Relu {
			e.emit(isa.Vec(isa.VFnRelu8, out, out, isa.GZero, ln))
		}
		e.release(out, ln, accR)
		distribute(y)
		e.emit(isa.ALUI(isa.FnAdd, y, y, 1))
	})
	e.release(y, yEnd, inRow)
	if !sp.full {
		e.release(sp.nextIn)
	}
	return nil
}

// emitPool lowers max and average pooling on the vector unit: per output
// pixel, the window taps reduce with VMAX8 (max) or accumulate with VACC8
// and requantize (average).
func (gen *generator) emitPool(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	rep := op.Replicas[rI]
	sh := rep.Shards[sI]
	sc := sh.ChanCount
	outW := n.OutShape.W
	isAvg := n.Op == model.OpAvgPool

	sp := gen.buildInputSpec(cg, op, rI, 0)
	var acc int32
	if isAvg {
		acc = cg.arenaAlloc(int32(4 * sc))
		e.setSReg(isa.SRegQuantMul, n.QMul)
		e.setSReg(isa.SRegQuantShift, int32(n.QShift))
	}
	if sp.full {
		gen.emitAcquireAll(cg, sp)
	} else {
		gen.emitRingInit(cg, sp)
	}
	y := e.alloc()
	e.li(y, int32(rep.RowStart))
	yEnd := e.constReg(int32(rep.RowEnd))
	inRow := e.alloc()
	e.whileLT(y, yEnd, func() {
		if sp.full {
			e.mulConst(inRow, y, int32(n.Stride)*sp.rowBytes)
			e.addConst(inRow, inRow, sp.buf+int32(-n.Pad-sp.padLo)*sp.rowBytes)
		} else {
			gen.emitRingAdvance(cg, sp, y)
			gen.emitStaging(cg, sp, y)
			e.li(inRow, sp.staging)
		}
		x := e.alloc()
		e.li(x, 0)
		xEnd := e.constReg(int32(outW))
		a := e.alloc()
		d := e.alloc()
		ln := e.constReg(int32(sc))
		var accR uint8
		if isAvg {
			accR = e.constReg(acc)
		}
		e.whileLT(x, xEnd, func() {
			e.mulConst(d, x, int32(sc))
			e.addConst(d, d, rowBuf)
			if isAvg {
				szAcc := e.constReg(int32(4 * sc))
				e.emit(isa.VFill(accR, szAcc, 0))
				e.release(szAcc)
			}
			first := true
			for kh := 0; kh < n.KH; kh++ {
				for kw := 0; kw < n.KW; kw++ {
					e.mulConst(a, x, int32(n.Stride*sp.cin))
					e.addConst(a, a, int32(kh)*sp.rowBytes+int32(kw*sp.cin+sh.ChanStart))
					e.emit(isa.ALU(isa.FnAdd, a, a, inRow))
					switch {
					case isAvg:
						e.emit(isa.Vec(isa.VFnAcc8, accR, a, isa.GZero, ln))
					case first:
						e.emit(isa.Vec(isa.VFnMov8, d, a, isa.GZero, ln))
					default:
						e.emit(isa.Vec(isa.VFnMax8, d, d, a, ln))
					}
					first = false
				}
			}
			if isAvg {
				e.emit(isa.Vec(isa.VFnQnt, d, accR, isa.GZero, ln))
			}
			e.emit(isa.ALUI(isa.FnAdd, x, x, 1))
		})
		if isAvg {
			e.release(accR)
		}
		e.release(x, xEnd, a, d, ln)
		distribute(y)
		e.emit(isa.ALUI(isa.FnAdd, y, y, 1))
	})
	e.release(y, yEnd, inRow)
	if !sp.full {
		e.release(sp.nextIn)
	}
	return nil
}

// emitGAP lowers global average pooling: stream input rows, accumulate
// per-channel sums with VACC8, requantize once at the end.
func (gen *generator) emitGAP(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	sh := op.Replicas[rI].Shards[sI]
	sc := sh.ChanCount
	sp := gen.buildInputSpec(cg, op, rI, 0) // a whole-input pattern: a full buffer
	gen.emitAcquireAll(cg, sp)
	acc := cg.arenaAlloc(int32(4 * sc))
	e.setSReg(isa.SRegQuantMul, n.QMul)
	e.setSReg(isa.SRegQuantShift, int32(n.QShift))
	accR := e.constReg(acc)
	sz := e.constReg(int32(4 * sc))
	e.emit(isa.VFill(accR, sz, 0))
	e.release(sz)
	a := e.alloc()
	ln := e.constReg(int32(sc))
	e.li(a, sp.buf+int32(sh.ChanStart))
	e.loop(int32(sp.hin*sp.win), func(uint8) {
		e.emit(isa.Vec(isa.VFnAcc8, accR, a, isa.GZero, ln))
		e.addConst(a, a, int32(sp.cin))
	})
	out := e.constReg(rowBuf)
	e.emit(isa.Vec(isa.VFnQnt, out, accR, isa.GZero, ln))
	e.release(a, ln, accR, out)
	y := e.constReg(0)
	distribute(y)
	e.release(y)
	return nil
}

// emitPointwise lowers elementwise activations (relu, relu6, sigmoid, silu).
func (gen *generator) emitPointwise(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	rep := op.Replicas[rI]
	sh := rep.Shards[sI]
	sc := sh.ChanCount
	sp := gen.buildInputSpec(cg, op, rI, 0)

	var fn uint8
	var scalarB uint8 // register operand for relu6
	switch n.Op {
	case model.OpReLU:
		fn = isa.VFnRelu8
	case model.OpReLU6:
		fn = isa.VFnRelu68
		scalarB = e.constReg(int32(n.Q6))
	case model.OpSigmoid:
		fn = isa.VFnSigm8
		e.setSReg(isa.SRegActInScale, floatBits(n.InScale))
		e.setSReg(isa.SRegActOutScale, floatBits(n.OutScale))
	case model.OpSiLU:
		fn = isa.VFnSilu8
		e.setSReg(isa.SRegActInScale, floatBits(n.InScale))
		e.setSReg(isa.SRegActOutScale, floatBits(n.OutScale))
	}
	if sp.full {
		gen.emitAcquireAll(cg, sp)
	} else {
		gen.emitRingInit(cg, sp)
	}
	contiguous := sc == sp.cin
	y := e.alloc()
	e.li(y, int32(rep.RowStart))
	yEnd := e.constReg(int32(rep.RowEnd))
	a := e.alloc()
	d := e.alloc()
	e.whileLT(y, yEnd, func() {
		if sp.full {
			e.mulConst(a, y, sp.rowBytes)
			e.addConst(a, a, sp.buf+int32(-sp.padLo)*sp.rowBytes+int32(sh.ChanStart))
		} else {
			gen.emitRingAdvance(cg, sp, y)
			e.emit(isa.ALUI(isa.FnAnd, a, y, sp.ringMask))
			e.mulConst(a, a, sp.rowBytes)
			e.addConst(a, a, sp.buf+int32(sh.ChanStart))
		}
		if contiguous {
			ln := e.constReg(int32(sp.win * sc))
			e.li(d, rowBuf)
			e.emit(isa.Vec(fn, d, a, scalarB, ln))
			e.release(ln)
		} else {
			ln := e.constReg(int32(sc))
			e.li(d, rowBuf)
			e.loop(int32(sp.win), func(uint8) {
				e.emit(isa.Vec(fn, d, a, scalarB, ln))
				e.addConst(a, a, int32(sp.cin))
				e.addConst(d, d, int32(sc))
			})
			e.release(ln)
		}
		distribute(y)
		e.emit(isa.ALUI(isa.FnAdd, y, y, 1))
	})
	e.release(y, yEnd, a, d)
	if scalarB != 0 {
		e.release(scalarB)
	}
	if !sp.full {
		e.release(sp.nextIn)
	}
	return nil
}

// emitAdd lowers a quantized residual addition of two streamed inputs.
func (gen *generator) emitAdd(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	rep := op.Replicas[rI]
	sh := rep.Shards[sI]
	sc := sh.ChanCount
	spA := gen.buildInputSpec(cg, op, rI, 0)
	spB := gen.buildInputSpec(cg, op, rI, 1)
	e.setSReg(isa.SRegQMulA, n.QMul)
	e.setSReg(isa.SRegQMulB, n.QMulB)
	e.setSReg(isa.SRegQuantShift, int32(n.QShift))
	for _, sp := range []*inputSpec{spA, spB} {
		if sp.full {
			gen.emitAcquireAll(cg, sp)
		} else {
			gen.emitRingInit(cg, sp)
		}
	}
	rowAddr := func(sp *inputSpec, y, dst uint8) {
		if sp.full {
			e.mulConst(dst, y, sp.rowBytes)
			e.addConst(dst, dst, sp.buf+int32(-sp.padLo)*sp.rowBytes+int32(sh.ChanStart))
		} else {
			e.emit(isa.ALUI(isa.FnAnd, dst, y, sp.ringMask))
			e.mulConst(dst, dst, sp.rowBytes)
			e.addConst(dst, dst, sp.buf+int32(sh.ChanStart))
		}
	}
	contiguous := sc == spA.cin
	y := e.alloc()
	e.li(y, int32(rep.RowStart))
	yEnd := e.constReg(int32(rep.RowEnd))
	a := e.alloc()
	b := e.alloc()
	d := e.alloc()
	e.whileLT(y, yEnd, func() {
		for _, sp := range []*inputSpec{spA, spB} {
			if !sp.full {
				gen.emitRingAdvance(cg, sp, y)
			}
		}
		rowAddr(spA, y, a)
		rowAddr(spB, y, b)
		e.li(d, rowBuf)
		if contiguous {
			ln := e.constReg(int32(spA.win * sc))
			e.emit(isa.Vec(isa.VFnQAdd8, d, a, b, ln))
			e.release(ln)
		} else {
			ln := e.constReg(int32(sc))
			e.loop(int32(spA.win), func(uint8) {
				e.emit(isa.Vec(isa.VFnQAdd8, d, a, b, ln))
				e.addConst(a, a, int32(spA.cin))
				e.addConst(b, b, int32(spB.cin))
				e.addConst(d, d, int32(sc))
			})
			e.release(ln)
		}
		distribute(y)
		e.emit(isa.ALUI(isa.FnAdd, y, y, 1))
	})
	e.release(y, yEnd, a, b, d)
	for _, sp := range []*inputSpec{spA, spB} {
		if !sp.full {
			e.release(sp.nextIn)
		}
	}
	return nil
}

// emitMul lowers the squeeze-excite channel-wise scaling: input A rows
// scaled by the broadcast 1x1xC vector of input B.
func (gen *generator) emitMul(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	rep := op.Replicas[rI]
	sh := rep.Shards[sI]
	sc := sh.ChanCount
	spA := gen.buildInputSpec(cg, op, rI, 0)
	spB := gen.buildInputSpec(cg, op, rI, 1) // 1x1xC, full mode
	e.setSReg(isa.SRegQuantMul, n.QMul)
	e.setSReg(isa.SRegQuantShift, int32(n.QShift))
	if spA.full {
		gen.emitAcquireAll(cg, spA)
	} else {
		gen.emitRingInit(cg, spA)
	}
	gen.emitAcquireAll(cg, spB)
	y := e.alloc()
	e.li(y, int32(rep.RowStart))
	yEnd := e.constReg(int32(rep.RowEnd))
	a := e.alloc()
	b := e.alloc()
	d := e.alloc()
	ln := e.constReg(int32(sc))
	e.whileLT(y, yEnd, func() {
		if spA.full {
			e.mulConst(a, y, spA.rowBytes)
			e.addConst(a, a, spA.buf+int32(-spA.padLo)*spA.rowBytes+int32(sh.ChanStart))
		} else {
			gen.emitRingAdvance(cg, spA, y)
			e.emit(isa.ALUI(isa.FnAnd, a, y, spA.ringMask))
			e.mulConst(a, a, spA.rowBytes)
			e.addConst(a, a, spA.buf+int32(sh.ChanStart))
		}
		e.li(d, rowBuf)
		e.loop(int32(spA.win), func(uint8) {
			e.li(b, spB.buf+int32(sh.ChanStart))
			e.emit(isa.Vec(isa.VFnQMul8, d, a, b, ln))
			e.addConst(a, a, int32(spA.cin))
			e.addConst(d, d, int32(sc))
		})
		distribute(y)
		e.emit(isa.ALUI(isa.FnAdd, y, y, 1))
	})
	e.release(y, yEnd, a, b, d, ln)
	if !spA.full {
		e.release(spA.nextIn)
	}
	return nil
}
