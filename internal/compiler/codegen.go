package compiler

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"cimflow/internal/arch"
	"cimflow/internal/ir"
	"cimflow/internal/isa"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// generator drives code generation: one emitter per core, walking the plan
// stage by stage and lowering every (op, replica, shard) onto its core.
type generator struct {
	g      *model.Graph
	cfg    *arch.Config
	plan   *Plan
	layout *globalLayout
	geoms  map[int]mvmGeom
	cores  []*coregen
	// consumersOf lists the in-stage consumer edges of each node, in plan
	// order (the order producers route and consumer cores execute).
	consumersOf map[int][]edge
}

// coregen is the per-core generation state.
type coregen struct {
	e        *emitter
	pool     *pool
	arenaTop int32  // next free byte, growing down from local memory top
	arenaMin int32  // low-water mark across ops
	groups   uint32 // the macro groups the core loads
	// op is the node being emitted; lowOp the one that set arenaMin and
	// bigOp the one that emitted the most code, named by ErrInfeasible.
	op, lowOp, bigOp string
	bigLen           int
}

func (cg *coregen) arenaAlloc(size int32) int32 {
	size = (size + 3) &^ 3
	cg.arenaTop -= size
	if cg.arenaTop < cg.arenaMin {
		cg.arenaMin = cg.arenaTop
		cg.lowOp = cg.op
	}
	return cg.arenaTop
}

func (cg *coregen) arenaReset(top int32) { cg.arenaTop = top }

// resolve follows flatten nodes to the producing node.
func (gen *generator) resolve(id int) int {
	for gen.g.Nodes[id].Op == model.OpFlatten {
		id = gen.g.Nodes[id].Inputs[0]
	}
	return id
}

// Compile runs the full staged flow — frontend, planning, codegen — for a
// graph in one shot. Callers compiling a graph more than once (sweeps,
// engines, serving) should hold a CompileContext and call its Compile,
// which reuses the frontend artifact and the planning caches.
func Compile(g *model.Graph, cfg *arch.Config, opt Options) (*Compiled, error) {
	cx, err := NewContext(g)
	if err != nil {
		return nil, err
	}
	return cx.Compile(cfg, opt)
}

// Compile lowers the context's graph onto an architecture: the planning
// stage produces the CG-level plan (memoized per architecture), then the
// codegen stage emits every core's instruction stream on an independent
// worker (GOMAXPROCS of them, at most one per core) and merges the
// programs deterministically — the artifact is byte-identical at any
// worker count.
func (cx *CompileContext) Compile(cfg *arch.Config, opt Options) (*Compiled, error) {
	return cx.compile(cfg, opt, runtime.GOMAXPROCS(0))
}

// compile is Compile on the given number of codegen workers.
func (cx *CompileContext) compile(cfg *arch.Config, opt Options, workers int) (*Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cm := cx.planner(cfg)
	plan, err := cx.partitionWith(cm, opt)
	if err != nil {
		return nil, err
	}
	g := cx.g
	layout := buildLayout(g, cfg, plan, cm.geoms)
	gen := &generator{
		g:           g,
		cfg:         cfg,
		plan:        plan,
		layout:      layout,
		geoms:       cm.geoms,
		consumersOf: map[int][]edge{},
	}
	for _, st := range plan.Stages {
		for _, op := range st.Ops {
			for idx := range op.Node.Inputs {
				src := gen.resolve(op.Node.Inputs[idx])
				if src == 0 {
					continue
				}
				if plan.stageOf(src) == plan.stageOf(op.Node.ID) {
					gen.consumersOf[src] = append(gen.consumersOf[src], edge{cons: op, inputIdx: idx})
				}
			}
		}
	}
	for i := 0; i < cfg.NumCores(); i++ {
		gen.cores = append(gen.cores, &coregen{
			e:        newEmitter(),
			pool:     newPool(),
			arenaTop: int32(cfg.Core.LocalMemBytes),
			arenaMin: int32(cfg.Core.LocalMemBytes),
		})
	}

	// Codegen stage, part 1: emit every core's body. Per-core state
	// (emitter, register pool, constant pool, arena) is fully isolated and
	// the plan/layout/geometry inputs are read-only, so cores emit on
	// independent workers; each worker walks the plan in the same nested
	// order the sequential path uses, so a core's stream does not depend on
	// the worker count.
	if err := forEachCore(len(gen.cores), workers, gen.emitCore); err != nil {
		return nil, err
	}

	c := &Compiled{
		Cfg:        cfg,
		Graph:      g,
		Plan:       plan,
		layout:     layout,
		geoms:      gen.geoms,
		OutputNode: gen.resolve(g.Output()),
	}
	// Codegen stage, part 2 (serial): deterministic merge bookkeeping in
	// core-id order — emission error checks, the constant-pool global
	// addresses (layout.alloc is order-dependent) and each core's memory
	// map, held to the check a chip applies when it loads the program.
	maps := make([]sim.MemMap, len(gen.cores))
	for id, cg := range gen.cores {
		if cg.e.err != nil {
			return nil, fmt.Errorf("core %d: %w", id, cg.e.err)
		}
		cg.e.emit(isa.Halt())
		if cg.pool.size() > 0 {
			base := layout.alloc(cg.pool.size())
			layout.poolAddr[id] = base
			c.poolSegs = append(c.poolSegs, sim.GlobalSegment{Addr: int(base), Data: cg.pool.data})
		} else {
			layout.poolAddr[id] = -1
		}
		maps[id] = sim.MemMap{PoolEnd: cg.pool.size(), ArenaMin: cg.arenaMin, Groups: cg.groups}
		if err := maps[id].Check(cfg); err != nil {
			have := cfg.Core.LocalMemBytes
			if need := int(cg.pool.size()) + have - int(cg.arenaMin); need > have {
				return nil, &ErrInfeasible{Node: cg.lowOp, Resource: "local memory bytes", Need: need, Have: have}
			}
			return nil, fmt.Errorf("compiler: internal: core %d: %w", id, err)
		}
	}
	// Codegen stage, part 3: per-core finalization — prelude (constant
	// pool copy) + body + halt, late IR optimizations and predecoding —
	// is independent again, so it runs on the same worker pool.
	programs := make([]sim.Program, len(gen.cores))
	if err := forEachCore(len(gen.cores), workers, func(id int) error {
		cg := gen.cores[id]
		var code []isa.Instruction
		if base := layout.poolAddr[id]; base >= 0 {
			pre := newEmitter()
			src := pre.constReg(sim.GlobalBase + base)
			dst := pre.constReg(0)
			sz := pre.constReg(cg.pool.size())
			pre.emit(isa.MemCpy(dst, src, sz, 0))
			code = append(pre.code, cg.e.code...)
		} else {
			code = cg.e.code
		}
		// Conventional late optimizations: dead-write elimination, trivial
		// moves, NOP compaction with branch retargeting.
		code, _, err := ir.Optimize(code)
		if err != nil {
			return fmt.Errorf("compiler: core %d: %w", id, err)
		}
		if need := len(code) * 4; need > cfg.Core.InstMemBytes {
			return &ErrInfeasible{Node: cg.bigOp, Resource: "instruction memory bytes", Need: need, Have: cfg.Core.InstMemBytes}
		}
		// Lower to the predecoded micro-op form once per artifact: every
		// chip (session pool, DSE sweep worker) shares the immutable
		// decoded program, and illegal encodings surface as compile errors
		// instead of mid-simulation faults. Fuse then collapses the
		// emitter's straight-line idioms (LI ladders, address arithmetic
		// feeding CIM_MVM, loop tails) into superops the simulator
		// dispatches once per run.
		dec, err := isa.Predecode(code)
		if err != nil {
			return fmt.Errorf("compiler: core %d: %w", id, err)
		}
		isa.Fuse(dec)
		programs[id] = sim.Program{Core: id, Code: code, Decoded: dec, Map: &maps[id]}
		return nil
	}); err != nil {
		return nil, err
	}
	c.Programs = programs
	return c, nil
}

// emitCore emits one core's instruction body: every (op, replica, shard)
// instance the plan places on the core, in plan order, with a barrier per
// stage — exactly the subsequence the monolithic single-pass generator
// emitted for the core.
func (gen *generator) emitCore(core int) error {
	cg := gen.cores[core]
	for _, st := range gen.plan.Stages {
		for _, op := range st.Ops {
			for rI := range op.Replicas {
				for sI := range op.Replicas[rI].Shards {
					if op.Replicas[rI].Shards[sI].Core != core {
						continue
					}
					start := len(cg.e.code)
					if err := gen.emitOp(st, op, rI, sI); err != nil {
						return err
					}
					if n := len(cg.e.code) - start; n > cg.bigLen {
						cg.bigOp, cg.bigLen = op.Node.Name, n
					}
				}
			}
		}
		cg.e.emit(isa.Barrier(uint16(st.ID)))
		cg.e.invalidateSRegs()
	}
	return nil
}

// forEachCore runs fn for every core id on at most workers workers, never
// more than one per core (workers <= 1 runs inline). All cores are
// attempted; the error reported is the lowest-core-id failure, keeping
// diagnostics deterministic under parallelism.
func forEachCore(numCores, workers int, fn func(core int) error) error {
	if workers = min(workers, numCores); workers <= 1 {
		for id := 0; id < numCores; id++ {
			if err := fn(id); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, numCores)
	ids := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				errs[id] = fn(id)
			}
		}()
	}
	for id := 0; id < numCores; id++ {
		ids <- id
	}
	close(ids)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// emitOp lowers one (op, replica, shard) instance onto its core.
func (gen *generator) emitOp(st *Stage, op *OpPlan, rI, sI int) error {
	rep := op.Replicas[rI]
	sh := rep.Shards[sI]
	cg := gen.cores[sh.Core]
	e := cg.e
	e.invalidateSRegs()
	arenaTop := cg.arenaTop
	defer cg.arenaReset(arenaTop)

	n := op.Node
	cg.op = n.Name
	rows := rep.RowEnd - rep.RowStart
	if rows <= 0 || sh.ChanCount <= 0 {
		return nil
	}
	outW := n.OutShape.W
	rowBuf := cg.arenaAlloc(int32(outW * sh.ChanCount))

	// Routing tables toward in-stage consumers, in plan order.
	var routes []consumerRouting
	for _, ed := range gen.consumersOf[n.ID] {
		routes = append(routes, gen.buildRouting(cg, op, sh.ChanCount, ed))
	}
	// Global output cursor for stage-crossing tensors.
	var globalCursor uint8
	if op.GlobalOut >= 0 {
		globalCursor = e.alloc()
		e.li(globalCursor, sim.GlobalBase+int32(op.GlobalOut)+pieceOffset(op, rI, sI))
	}
	distribute := func(yReg uint8) {
		rb := e.constReg(rowBuf)
		gen.emitDistributeRow(cg, routes, rb, yReg)
		if globalCursor != 0 {
			sz := e.constReg(int32(outW * sh.ChanCount))
			e.emit(isa.MemCpy(globalCursor, rb, sz, 0))
			e.addConst(globalCursor, globalCursor, int32(outW*sh.ChanCount))
			e.release(sz)
		}
		e.release(rb)
	}

	var err error
	switch n.Op {
	case model.OpConv:
		err = gen.emitConv(cg, op, rI, sI, rowBuf, distribute)
	case model.OpDense:
		err = gen.emitDense(cg, op, rI, sI, rowBuf, distribute)
	case model.OpDWConv:
		err = gen.emitDepthwise(cg, op, rI, sI, rowBuf, distribute)
	case model.OpMaxPool, model.OpAvgPool:
		err = gen.emitPool(cg, op, rI, sI, rowBuf, distribute)
	case model.OpGlobalAvgPool:
		err = gen.emitGAP(cg, op, rI, sI, rowBuf, distribute)
	case model.OpReLU, model.OpReLU6, model.OpSigmoid, model.OpSiLU:
		err = gen.emitPointwise(cg, op, rI, sI, rowBuf, distribute)
	case model.OpAdd:
		err = gen.emitAdd(cg, op, rI, sI, rowBuf, distribute)
	case model.OpMul:
		err = gen.emitMul(cg, op, rI, sI, rowBuf, distribute)
	default:
		err = fmt.Errorf("compiler: cannot lower op %s", n.Op)
	}
	if err != nil {
		return fmt.Errorf("lowering %s (replica %d shard %d core %d): %w", n.Name, rI, sI, sh.Core, err)
	}
	if globalCursor != 0 {
		e.release(globalCursor)
	}
	return nil
}

// wstgBytes is the weight staging scratch size: one macro-group tile.
func (gen *generator) wstgBytes() int32 {
	return int32(gen.cfg.Unit.MacroRows * gen.cfg.GroupChannels())
}

// emitWeightLoad stages and loads one (chanTile, rowTile) weight block into
// a macro group.
func (gen *generator) emitWeightLoad(cg *coregen, gm *mvmGeom, wstg int32, ctGlobal, tileIdx, mgIdx int) {
	e := cg.e
	gc := gen.cfg.GroupChannels()
	chans := gc
	if (ctGlobal+1)*gc > gm.node.Cout {
		chans = gm.node.Cout - ctGlobal*gc
	}
	t := gm.tiles[tileIdx]
	src := e.constReg(sim.GlobalBase + gen.layout.weightAddr[gm.node.ID] +
		weightBlockOffset(gm, gc, ctGlobal, tileIdx))
	dst := e.constReg(wstg)
	sz := e.constReg(int32(t.Rows * chans))
	e.emit(isa.MemCpy(dst, src, sz, 0))
	mg := e.constReg(int32(mgIdx))
	cg.groups |= 1 << mgIdx
	rowsR := e.constReg(int32(t.Rows))
	chansR := e.constReg(int32(chans))
	e.setSReg(isa.SRegLoadRow, 0)
	e.setSReg(isa.SRegLoadChan, 0)
	e.emit(isa.CimLoad(mg, dst, rowsR, chansR))
	e.release(src, dst, sz, mg, rowsR, chansR)
}

// emitConv lowers a convolution shard: resident weight loading, the
// output-row loop with input acquisition, per-pixel row-tiled MVM issues,
// and row distribution.
func (gen *generator) emitConv(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	rep := op.Replicas[rI]
	sh := rep.Shards[sI]
	gm := gen.geoms[n.ID]
	gc := gen.cfg.GroupChannels()
	if op.Passes != 1 {
		return gen.emitConvMultiPass(cg, op, rI, sI, rowBuf, distribute)
	}
	ctStart := sh.ChanStart / gc
	nct := (sh.ChanCount + gc - 1) / gc
	rt := len(gm.tiles)
	if nct*rt > gen.cfg.Core.NumMacroGroups {
		return fmt.Errorf("internal: resident shard needs %d macro groups, core has %d", nct*rt, gen.cfg.Core.NumMacroGroups)
	}

	sp := gen.buildInputSpec(cg, op, rI, 0)
	wstg := cg.arenaAlloc(gen.wstgBytes())

	// Load all resident weight tiles: MG index = ct*rt + tile.
	for ct := 0; ct < nct; ct++ {
		for ti := 0; ti < rt; ti++ {
			gen.emitWeightLoad(cg, &gm, wstg, ctStart+ct, ti, ct*rt+ti)
		}
	}
	// Requantization parameters for writeback.
	e.setSReg(isa.SRegQuantMul, n.QMul)
	e.setSReg(isa.SRegQuantShift, int32(n.QShift))

	// Uniform gather configuration across tiles can be hoisted.
	uniformSegs := true
	for _, t := range gm.tiles {
		if t.SegCount != gm.tiles[0].SegCount {
			uniformSegs = false
		}
	}
	if uniformSegs {
		e.setSReg(isa.SRegSegCount, int32(gm.tiles[0].SegCount))
		e.setSReg(isa.SRegSegStride, sp.rowBytes)
	}
	uniformChans := nct == 1 || (ctStart+nct)*gc <= n.Cout
	lastChans := gc
	if (ctStart+nct)*gc > n.Cout {
		lastChans = n.Cout - (ctStart+nct-1)*gc
	}
	if uniformChans || nct == 1 {
		e.setSReg(isa.SRegOutChans, int32(lastChans))
	} else {
		e.setSReg(isa.SRegOutChans, int32(gc))
	}

	if !sp.full {
		gen.emitRingInit(cg, sp)
	} else {
		gen.emitAcquireAll(cg, sp)
	}

	stride := int32(n.Stride)
	y := e.alloc()
	e.li(y, int32(rep.RowStart))
	yEnd := e.constReg(int32(rep.RowEnd))
	inRow := e.alloc() // base address of the k gathered rows for this y
	tileAddr := e.alloc()
	outAddr := e.alloc()
	e.whileLT(y, yEnd, func() {
		if sp.full {
			// Row base = buf + (y*s - p - padLo) * rowBytes.
			e.mulConst(inRow, y, stride*sp.rowBytes)
			e.addConst(inRow, inRow, sp.buf+int32(-int32(n.Pad)-int32(sp.padLo))*sp.rowBytes)
		} else {
			gen.emitRingAdvance(cg, sp, y)
			if n.KH > 1 {
				gen.emitStaging(cg, sp, y)
				e.li(inRow, sp.staging)
			} else {
				// Single-tap consumers read the ring slot directly.
				e.mulConst(inRow, y, stride)
				e.emit(isa.ALUI(isa.FnAnd, inRow, inRow, sp.ringMask))
				e.mulConst(inRow, inRow, sp.rowBytes)
				e.addConst(inRow, inRow, sp.buf)
			}
		}
		e.li(outAddr, rowBuf)
		x := e.alloc()
		e.li(x, 0)
		xEnd := e.constReg(int32(n.OutShape.W))
		e.whileLT(x, xEnd, func() {
			pix := e.alloc()
			e.mulConst(pix, x, stride*int32(sp.cin))
			e.emit(isa.ALU(isa.FnAdd, pix, pix, inRow))
			for ct := 0; ct < nct; ct++ {
				for ti, t := range gm.tiles {
					if !uniformSegs {
						scr := e.constReg(int32(t.SegCount))
						e.emit(isa.MTS(isa.SRegSegCount, scr))
						e.li(scr, sp.rowBytes)
						e.emit(isa.MTS(isa.SRegSegStride, scr))
						e.release(scr)
					}
					e.addConst(tileAddr, pix, int32(t.Seg0)*sp.rowBytes+int32(t.Offset))
					lenR := e.constReg(int32(t.Rows))
					var flags uint16
					if ti > 0 {
						flags |= isa.MVMFlagAccumulate
					}
					if ti == rt-1 {
						flags |= isa.MVMFlagWriteback
						if n.Relu {
							flags |= isa.MVMFlagRelu
						}
						if !uniformChans && nct > 1 && ct == nct-1 {
							scr := e.constReg(int32(lastChans))
							e.emit(isa.MTS(isa.SRegOutChans, scr))
							e.release(scr)
						}
						wb := e.alloc()
						e.addConst(wb, outAddr, int32(ct*gc))
						e.emit(isa.CimMVM(tileAddr, lenR, wb, isa.MVMFlags(ct*rt+ti, flags)))
						e.release(wb)
						if !uniformChans && nct > 1 && ct == nct-1 {
							scr := e.constReg(int32(gc))
							e.emit(isa.MTS(isa.SRegOutChans, scr))
							e.release(scr)
						}
					} else {
						e.emit(isa.CimMVM(tileAddr, lenR, tileAddr, isa.MVMFlags(ct*rt+ti, flags)))
					}
					e.release(lenR)
				}
			}
			e.release(pix)
			e.addConst(outAddr, outAddr, int32(sh.ChanCount))
			e.emit(isa.ALUI(isa.FnAdd, x, x, 1))
		})
		e.release(x, xEnd)
		distribute(y)
		e.emit(isa.ALUI(isa.FnAdd, y, y, 1))
	})
	e.release(y, yEnd, inRow, tileAddr, outAddr)
	if !sp.full {
		e.release(sp.nextIn)
	}
	return nil
}

// emitDense lowers a fully-connected shard. A shard whose channel tiles x
// row tiles fit the core's macro groups loads them all once (op.Passes ==
// 1); a larger one swaps (mvmGeom.fit): for each channel tile it reloads the
// row tiles into groups 0..mg-1, mg at a time, just before their MVMs. The
// whole input is always held (a dense input is a full buffer).
func (gen *generator) emitDense(cg *coregen, op *OpPlan, rI, sI int, rowBuf int32, distribute func(uint8)) error {
	e := cg.e
	n := op.Node
	sh := op.Replicas[rI].Shards[sI]
	gm := gen.geoms[n.ID]
	gc := gen.cfg.GroupChannels()
	mgPerCore := gen.cfg.Core.NumMacroGroups
	ctStart := sh.ChanStart / gc
	nct := (sh.ChanCount + gc - 1) / gc
	rt := len(gm.tiles)
	swap := op.Passes > 1

	sp := gen.buildInputSpec(cg, op, rI, 0)
	wstg := cg.arenaAlloc(gen.wstgBytes())
	gen.emitAcquireAll(cg, sp)

	e.setSReg(isa.SRegQuantMul, n.QMul)
	e.setSReg(isa.SRegQuantShift, int32(n.QShift))
	e.setSReg(isa.SRegSegCount, 1)

	// Flattened input is a single segment; tiles address contiguous slices.
	tileAddr := e.alloc()
	for ct := 0; ct < nct; ct++ {
		chans := gc
		if (ctStart+ct+1)*gc > n.Cout {
			chans = n.Cout - (ctStart+ct)*gc
		}
		if !swap {
			for ti := 0; ti < rt; ti++ {
				gen.emitWeightLoad(cg, &gm, wstg, ctStart+ct, ti, ct*rt+ti)
			}
		}
		rowOff := int32(0)
		for ti, t := range gm.tiles {
			mgSlot := ct*rt + ti
			if swap {
				mgSlot = ti % mgPerCore
				gen.emitWeightLoad(cg, &gm, wstg, ctStart+ct, ti, mgSlot)
			}
			e.li(tileAddr, sp.buf+rowOff)
			rowOff += int32(t.Rows)
			lenR := e.constReg(int32(t.Rows))
			var flags uint16
			if ti > 0 {
				flags |= isa.MVMFlagAccumulate
			}
			if ti == rt-1 {
				flags |= isa.MVMFlagWriteback
				if n.Relu {
					flags |= isa.MVMFlagRelu
				}
				e.setSReg(isa.SRegOutChans, int32(chans))
				wb := e.constReg(rowBuf + int32(ct*gc))
				e.emit(isa.CimMVM(tileAddr, lenR, wb, isa.MVMFlags(mgSlot, flags)))
				e.release(wb)
			} else {
				e.emit(isa.CimMVM(tileAddr, lenR, tileAddr, isa.MVMFlags(mgSlot, flags)))
			}
			e.release(lenR)
		}
	}
	e.release(tileAddr)
	y := e.constReg(0)
	distribute(y)
	e.release(y)
	return nil
}

// floatBits returns the IEEE-754 bits of a float32 as int32 for SC_MTS.
func floatBits(f float32) int32 { return int32(math.Float32bits(f)) }
