package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/artifact"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/isa"
	"cimflow/internal/model"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// This file is the traced run's walk through the layers below the public
// facade. It is the only file that calls the internal packages' pipeline
// functions directly, one span around each call, re-creating step by step
// what compiler.Compile, core.NewSession and core.Session.Infer do.

// program is one (model, architecture, strategy) the walk compiles.
type program struct {
	model string
	cfg   arch.Config
	opt   compiler.Options
}

// walkCompile takes a program through graph build, the three compiler
// stages, the ISA passes and the artifact codec and store, and returns the
// compiled artifact and its encoded size.
func walkCompile(tr *tracer, op int, p *program) (c *compiler.Compiled, blobBytes int, err error) {
	var g *model.Graph
	tr.timed("model.graph_build", -1, op, func() error { g = model.Zoo(p.model); return nil })
	if g == nil {
		return nil, 0, fmt.Errorf("unknown model %q", p.model)
	}
	var cx *compiler.CompileContext
	if err = tr.timed("compiler.frontend", -1, op, func() (err error) { cx, err = compiler.NewContext(g); return }); err != nil {
		return nil, 0, err
	}
	if err = tr.timed("compiler.plan", -1, op, func() (err error) { _, err = cx.Partition(&p.cfg, p.opt); return }); err != nil {
		return nil, 0, err
	}
	// With the plan memoized, Compile is layout + emit + predecode + fuse.
	if err = tr.timed("compiler.codegen", -1, op, func() (err error) { c, err = cx.Compile(&p.cfg, p.opt); return }); err != nil {
		return nil, 0, err
	}
	if err = tr.timed("compiler.estimate", -1, op, func() (err error) { _, err = cx.Estimate(&p.cfg, p.opt); return }); err != nil {
		return nil, 0, err
	}
	// The ISA passes again, on their own, over the same instruction streams.
	decoded := make([][]isa.Decoded, len(c.Programs))
	if err = tr.timed("isa.predecode", -1, op, func() (err error) {
		for i, prog := range c.Programs {
			if decoded[i], err = isa.Predecode(prog.Code); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	tr.timed("isa.fuse", -1, op, func() error {
		for _, d := range decoded {
			isa.Fuse(d)
		}
		return nil
	})
	var blob []byte
	if err = tr.timed("artifact.encode", -1, op, func() (err error) { blob, err = artifact.Encode(c, p.opt); return }); err != nil {
		return nil, 0, err
	}
	if err = tr.timed("artifact.decode", -1, op, func() (err error) { _, _, err = artifact.Decode(blob); return }); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp("", "cimflow-bench-store-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	store, err := artifact.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	defer store.Close()
	var key string
	if err = tr.timed("artifact.store_save", -1, op, func() (err error) { key, err = store.Save(c, p.opt); return }); err != nil {
		return nil, 0, err
	}
	if err = tr.timed("artifact.store_load", -1, op, func() (err error) { _, _, err = store.Load(key); return }); err != nil {
		return nil, 0, err
	}
	return c, len(blob), nil
}

// stepper owns one chip and runs inferences on it step by step, as
// core.Session does with a pooled chip.
type stepper struct {
	tr      *tracer
	c       *compiler.Compiled
	ch      *sim.Chip
	scratch [][2]int
	fresh   bool // no run yet: the chip needs no reset
}

// newStepper stages a compiled program on a new chip the way
// core.NewSession and its first acquire do: StaticInit, chip construction
// with the programs loaded, weight staging.
func newStepper(tr *tracer, op int, c *compiler.Compiled, ws model.WeightStore, lanes, workers int) (*stepper, error) {
	s := &stepper{tr: tr, c: c, scratch: c.ScratchRanges(), fresh: true}
	var static []sim.GlobalSegment
	if err := tr.timed("compiler.static_init", -1, op, func() (err error) { static, err = c.StaticInit(ws); return }); err != nil {
		return nil, err
	}
	if err := tr.timed("sim.chip_build", -1, op, func() (err error) {
		opts := []sim.ChipOption{sim.WithWorkers(workers)}
		if lanes > 1 {
			opts = append(opts, sim.WithLanes(lanes))
		}
		if s.ch, err = sim.NewChip(c.Cfg, opts...); err != nil {
			return err
		}
		s.ch.EnsureGlobal(c.GlobalBytes())
		for _, p := range c.Programs {
			if err = s.ch.LoadProgram(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	err := tr.timed("sim.stage_weights", -1, op, func() error {
		for _, seg := range static {
			if err := s.ch.InitGlobal(seg); err != nil {
				return err
			}
		}
		return nil
	})
	return s, err
}

// infer runs one lane group — one input per lane — through the steps of
// core.Session.Infer / inferLanes and returns the outputs, the run's
// Stats and the wall time of the whole op.
func (s *stepper) infer(ctx context.Context, op int, inputs []tensor.Tensor) ([]tensor.Tensor, *sim.Stats, time.Duration, error) {
	tr, ch := s.tr, s.ch
	t0 := time.Now()
	segs := make([]sim.GlobalSegment, len(inputs))
	if err := tr.timed("compiler.input_segment", -1, op, func() (err error) {
		for i, in := range inputs {
			if segs[i], err = s.c.InputSegment(in); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, 0, err
	}
	if !s.fresh {
		tr.timed("sim.reset", -1, op, func() error { ch.Reset(); return nil })
		if err := tr.timed("sim.zero_scratch", -1, op, func() error {
			for _, r := range s.scratch {
				if err := ch.ZeroGlobal(r[0], r[1]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, 0, err
		}
	}
	s.fresh = false
	if err := ch.SetLanes(len(inputs)); err != nil {
		return nil, nil, 0, err
	}
	if err := tr.timed("sim.init_input", -1, op, func() error { return ch.InitGlobal(segs[0]) }); err != nil {
		return nil, nil, 0, err
	}
	if len(inputs) > 1 {
		if err := tr.timed("sim.init_lane", -1, op, func() error {
			for l := 1; l < len(inputs); l++ {
				if err := ch.InitGlobalLane(l, segs[l]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, 0, err
		}
	}
	var stats *sim.Stats
	if err := tr.timed("sim.run", -1, op, func() (err error) { stats, err = ch.Run(ctx); return }); err != nil {
		return nil, nil, 0, err
	}
	outs := make([]tensor.Tensor, len(inputs))
	out := tr.begin("compiler.read_output", -1, op)
	for l := range inputs {
		var err error
		outs[l], err = s.c.ReadOutput(func(addr, size int) (data []byte, err error) {
			tr.timed("sim.read", out, op, func() error { data, err = ch.ReadGlobalLane(l, addr, size); return nil })
			return data, err
		})
		if err != nil {
			return nil, nil, 0, err
		}
	}
	tr.end(out)
	return outs, stats, time.Since(t0), nil
}

// coreSession builds a core.Session for a compiled program and runs its
// first inference (empty pool: it builds the chip), one span around each.
func coreSession(ctx context.Context, tr *tracer, op int, c *compiler.Compiled, ws model.WeightStore, lanes int, first []tensor.Tensor) (*core.Session, []*core.Result, error) {
	var sess *core.Session
	if err := tr.timed("core.session_build", -1, op, func() (err error) {
		sess, err = core.NewSession(c, ws, core.Options{MaxPooledChips: 1, SimWorkers: 1, SimLanes: lanes})
		return
	}); err != nil {
		return nil, nil, err
	}
	var res []*core.Result
	err := tr.timed("core.first_infer", -1, op, func() (err error) { res, err = coreInfer(ctx, sess, first); return })
	return sess, res, err
}

// coreInfer is the whole-call counterpart of stepper.infer.
func coreInfer(ctx context.Context, sess *core.Session, inputs []tensor.Tensor) ([]*core.Result, error) {
	if len(inputs) == 1 {
		res, err := sess.Infer(ctx, inputs[0])
		return []*core.Result{res}, err
	}
	return sess.InferBatch(ctx, inputs)
}

// spanMetrics fills every per-layer timing metric that has spans: the
// metric <layer>.<call>_ms (or _us) is the median, over the ops that
// entered it, of the self time (tracer.selfByOp) of the spans named
// <layer>.<call>.
func spanMetrics(v values, by map[string]map[int]float64) {
	for _, d := range perLayer {
		scale := 1.0
		name, ok := strings.CutSuffix(d.Name, "_ms")
		if !ok {
			if name, ok = strings.CutSuffix(d.Name, "_us"); !ok {
				continue
			}
			scale = 1000
		}
		if ops := by[name]; len(ops) > 0 {
			xs := make([]float64, 0, len(ops))
			for _, x := range ops {
				xs = append(xs, x)
			}
			v[d.Name] = scale * quantile(xs, 0.5)
		}
	}
}

// staticMetrics fills the exact compile-output counts, summed over the
// workload's programs: code size, global image, static micro-op mix by
// execution unit and the share of micro-ops inside fused runs.
func staticMetrics(v values, compiled []*compiler.Compiled) {
	var instr, fused, globalBytes float64
	var byUnit [5]float64
	for _, c := range compiled {
		globalBytes += float64(c.GlobalBytes())
		for _, p := range c.Programs {
			for _, d := range p.Decoded {
				instr++
				byUnit[d.Unit]++
				if d.Kind == isa.KindFusedRun {
					fused += float64(d.SubN)
				}
			}
		}
	}
	v["compiler.code_kinstr"] = instr / 1000
	v["compiler.global_mb"] = globalBytes / (1 << 20)
	if instr > 0 {
		v["compiler.kind_share.mvm"] = byUnit[isa.UnitCIM] / instr
		v["compiler.kind_share.vec"] = byUnit[isa.UnitVector] / instr
		v["compiler.kind_share.scalar"] = (byUnit[isa.UnitScalar] + byUnit[isa.UnitControl]) / instr
		v["compiler.kind_share.xfer"] = byUnit[isa.UnitTransfer] / instr
		v["isa.fused_share"] = fused / instr
	}
}

// simMetrics fills the exact simulated counts, summed over one run of each
// of the workload's programs; shares are ratios of the sums.
func simMetrics(v values, stats []*sim.Stats) {
	var cycleCores, totalPJ, computePJ, localPJ, nocPJ float64
	var busy [5]float64
	for _, st := range stats {
		v["sim.instructions"] += float64(st.Instructions)
		v["sim.macs"] += float64(st.MACs)
		v["sim.noc_bytes"] += float64(st.NoCBytes)
		v["sim.noc_byte_hops"] += float64(st.NoCByteHops)
		v["sim.global_bytes"] += float64(st.GlobalBytes)
		cycleCores += float64(st.Cycles) * float64(len(st.Cores))
		for i := range st.Cores {
			v["sim.stall_cycles"] += float64(st.Cores[i].StallCycles)
			for u, b := range st.Cores[i].UnitBusy {
				busy[u] += float64(b)
			}
		}
		totalPJ += st.Energy.TotalPJ()
		computePJ += st.Energy.ComputePJ()
		localPJ += st.Energy.LocalMemPJ
		nocPJ += st.Energy.NoCPJ
	}
	for u := range busy {
		if cycleCores > 0 {
			v[fmt.Sprintf("sim.unit_busy_share.%d", u)] = busy[u] / cycleCores
		}
	}
	if totalPJ > 0 {
		v["sim.energy_share.compute"] = computePJ / totalPJ
		v["sim.energy_share.localmem"] = localPJ / totalPJ
		v["sim.energy_share.noc"] = nocPJ / totalPJ
	}
}
