package compiler

import (
	"fmt"

	"cimflow/internal/isa"
)

// emitConvMultiPass lowers a convolution whose row tiles exceed the core's
// macro groups: output rows are processed in chunks, each chunk revisited
// once per weight-swap pass with partial sums accumulated in an INT32
// buffer of at most stagingBudget bytes, then requantized and distributed.
// The input ring is sized to retain a whole chunk's window so every pass can
// re-read it. The planner only hands it a shard of one channel tile of
// single-segment row tiles (mvmGeom.fit).
func (gen *generator) emitConvMultiPass(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	rep := op.Replicas[rI]
	sh := rep.Shards[sI]
	gm := gen.geoms[n.ID]
	gc := gen.cfg.GroupChannels()
	mg := gen.cfg.Core.NumMacroGroups
	sc := sh.ChanCount
	if (sc+gc-1)/gc != 1 {
		return fmt.Errorf("internal: multi-pass convolution shard must hold one channel tile (has %d chans)", sc)
	}
	ctGlobal := sh.ChanStart / gc
	rt := len(gm.tiles)
	outW := n.OutShape.W
	// Gather configuration must be uniform (single-segment tiles).
	if gm.tiles[0].SegCount != 1 {
		return fmt.Errorf("internal: multi-pass convolution requires single-segment tiles")
	}

	chunkRows := int(stagingBudget(gen.cfg)) / (4 * outW * gc)
	rows := rep.RowEnd - rep.RowStart
	if chunkRows > rows {
		chunkRows = rows
	}
	if chunkRows < 1 {
		chunkRows = 1
	}
	window := (chunkRows-1)*n.Stride + n.KH
	sp := gen.buildInputSpecWindow(cg, op, rI, 0, window)
	wstg := cg.arenaAlloc(gen.wstgBytes())
	rawChunk := cg.arenaAlloc(int32(4 * chunkRows * outW * gc))
	tmp32 := cg.arenaAlloc(int32(4 * gc))

	e.setSReg(isa.SRegQuantMul, n.QMul)
	e.setSReg(isa.SRegQuantShift, int32(n.QShift))
	e.setSReg(isa.SRegSegCount, 1)
	e.setSReg(isa.SRegOutChans, int32(gc))

	if sp.full {
		gen.emitAcquireAll(cg, sp)
	} else {
		gen.emitRingInit(cg, sp)
	}
	stride := int32(n.Stride)
	cs := e.alloc() // chunk start row
	e.li(cs, int32(rep.RowStart))
	rowEnd := e.constReg(int32(rep.RowEnd))
	ce := e.alloc() // chunk end row
	y := e.alloc()
	inRow := e.alloc()
	e.whileLT(cs, rowEnd, func() {
		e.addConst(ce, cs, int32(chunkRows))
		e.emit(isa.ALU(isa.FnMin, ce, ce, rowEnd))
		// Acquire the whole chunk window up front so every pass sees it.
		if !sp.full {
			bound := e.alloc()
			e.addConst(bound, ce, -1)
			e.mulConst(bound, bound, stride)
			e.addConst(bound, bound, int32(n.KH-n.Pad))
			hi := e.constReg(int32(sp.needHi))
			e.emit(isa.ALU(isa.FnMin, bound, bound, hi))
			e.whileLT(sp.nextIn, bound, func() {
				gen.emitAcquireRow(cg, sp, sp.nextIn)
				e.emit(isa.ALUI(isa.FnAdd, sp.nextIn, sp.nextIn, 1))
			})
			e.release(bound, hi)
		}
		// Clear the chunk's partial sums.
		rawR := e.constReg(rawChunk)
		sz := e.constReg(int32(4 * chunkRows * outW * gc))
		e.emit(isa.VFill(rawR, sz, 0))
		e.release(rawR, sz)

		for pass := 0; pass*mg < rt; pass++ {
			lo := pass * mg
			hi := lo + mg
			if hi > rt {
				hi = rt
			}
			for ti := lo; ti < hi; ti++ {
				gen.emitWeightLoad(cg, &gm, wstg, ctGlobal, ti, ti-lo)
			}
			e.emit(isa.ALU(isa.FnAdd, y, cs, isa.GZero))
			e.invalidateSRegs()
			e.whileLT(y, ce, func() {
				if sp.full {
					e.mulConst(inRow, y, stride*sp.rowBytes)
					e.addConst(inRow, inRow, sp.buf+int32(-int32(n.Pad)-int32(sp.padLo))*sp.rowBytes)
				} else {
					if n.KH > 1 {
						gen.emitStaging(cg, sp, y)
						e.li(inRow, sp.staging)
					} else {
						e.mulConst(inRow, y, stride)
						e.emit(isa.ALUI(isa.FnAnd, inRow, inRow, sp.ringMask))
						e.mulConst(inRow, inRow, sp.rowBytes)
						e.addConst(inRow, inRow, sp.buf)
					}
				}
				// rawRow = rawChunk + (y - cs)*W*gc*4
				rawRow := e.alloc()
				e.emit(isa.ALU(isa.FnSub, rawRow, y, cs))
				e.mulConst(rawRow, rawRow, int32(4*outW*gc))
				e.addConst(rawRow, rawRow, rawChunk)
				x := e.alloc()
				e.li(x, 0)
				xEnd := e.constReg(int32(outW))
				pix := e.alloc()
				tileAddr := e.alloc()
				tmpR := e.alloc()
				e.whileLT(x, xEnd, func() {
					e.mulConst(pix, x, stride*int32(sp.cin))
					e.emit(isa.ALU(isa.FnAdd, pix, pix, inRow))
					for ti := lo; ti < hi; ti++ {
						t := gm.tiles[ti]
						e.addConst(tileAddr, pix, int32(t.Seg0)*sp.rowBytes+int32(t.Offset))
						lenR := e.constReg(int32(t.Rows))
						var flags uint16
						if ti > lo {
							flags |= isa.MVMFlagAccumulate
						}
						if ti == hi-1 {
							flags |= isa.MVMFlagWriteRaw
							e.li(tmpR, tmp32)
							e.emit(isa.CimMVM(tileAddr, lenR, tmpR, isa.MVMFlags(ti-lo, flags)))
						} else {
							e.emit(isa.CimMVM(tileAddr, lenR, tileAddr, isa.MVMFlags(ti-lo, flags)))
						}
						e.release(lenR)
					}
					// rawRow[x] += tmp32
					d := e.alloc()
					e.mulConst(d, x, int32(4*gc))
					e.emit(isa.ALU(isa.FnAdd, d, d, rawRow))
					ln := e.constReg(int32(gc))
					e.li(tmpR, tmp32)
					e.emit(isa.Vec(isa.VFnAdd32, d, d, tmpR, ln))
					e.release(d, ln)
					e.emit(isa.ALUI(isa.FnAdd, x, x, 1))
				})
				e.release(x, xEnd, pix, tileAddr, tmpR, rawRow)
				e.emit(isa.ALUI(isa.FnAdd, y, y, 1))
			})
		}
		// Requantize and distribute the chunk.
		e.emit(isa.ALU(isa.FnAdd, y, cs, isa.GZero))
		e.invalidateSRegs()
		e.whileLT(y, ce, func() {
			rawRow := e.alloc()
			e.emit(isa.ALU(isa.FnSub, rawRow, y, cs))
			e.mulConst(rawRow, rawRow, int32(4*outW*gc))
			e.addConst(rawRow, rawRow, rawChunk)
			out := e.constReg(rowBuf)
			// Output rows are [W][sc]: requantize pixel by pixel when the
			// shard's channels are narrower than the group.
			if sc == gc {
				ln := e.constReg(int32(outW * gc))
				e.emit(isa.Vec(isa.VFnQnt, out, rawRow, isa.GZero, ln))
				if n.Relu {
					e.emit(isa.Vec(isa.VFnRelu8, out, out, isa.GZero, ln))
				}
				e.release(ln)
			} else {
				ln := e.constReg(int32(sc))
				e.loop(int32(outW), func(uint8) {
					e.emit(isa.Vec(isa.VFnQnt, out, rawRow, isa.GZero, ln))
					if n.Relu {
						e.emit(isa.Vec(isa.VFnRelu8, out, out, isa.GZero, ln))
					}
					e.addConst(out, out, int32(sc))
					e.addConst(rawRow, rawRow, int32(4*gc))
				})
				e.release(ln)
			}
			e.release(rawRow, out)
			distribute(y)
			e.emit(isa.ALUI(isa.FnAdd, y, y, 1))
		})
		e.emit(isa.ALU(isa.FnAdd, cs, ce, isa.GZero))
	})
	e.release(cs, rowEnd, ce, y, inRow)
	if !sp.full {
		e.release(sp.nextIn)
	}
	return nil
}
