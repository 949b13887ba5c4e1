package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"cimflow"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// lowerSteps are the spans the core layer's calls are made of. A core
// call's residual is its whole-call time minus the sum of these steps'
// self times in the same op done step by step.
var lowerSteps = []string{
	"compiler.static_init", "sim.chip_build", "sim.stage_weights",
	"compiler.input_segment", "sim.reset", "sim.zero_scratch", "sim.init_input", "sim.init_lane",
	"sim.run", "compiler.read_output", "sim.read",
}

// stepRec is one op done step by step.
type stepRec struct {
	op          int
	wallMS      float64 // whole op, span bookkeeping included
	instr, macs float64 // simulated by its Chip.Run, each lane credited
}

// layerRun gathers what a traced run measures: spans, the whole-call
// latencies of the core layer, and the same ops done step by step.
type layerRun struct {
	tr       *tracer
	vals     values
	v        *verifier
	whole    []float64 // ms per core whole-call op, in order
	steps    []stepRec
	diverged int
}

func newLayerRun(tr *tracer) *layerRun {
	return &layerRun{tr: tr, vals: make(values), v: newVerifier()}
}

// core verifies the results of one whole-call op that took d.
func (lr *layerRun) core(program string, d time.Duration, res []*core.Result, err error, want []cimflow.Tensor) {
	lr.whole = append(lr.whole, ms(d))
	for l := range want {
		var r *core.Result
		if err == nil {
			r = res[l]
		}
		lr.v.op(program, err, r, want[l])
	}
}

// step runs one op step by step under the given op id, verifies it and
// records it; extra is step-by-step time already spent on the op (staging
// a fresh chip) that belongs to its wall time.
func (lr *layerRun) step(ctx context.Context, st *stepper, op int, extra time.Duration, program string, inputs, want []cimflow.Tensor) error {
	outs, stats, wall, err := st.infer(ctx, op, inputs)
	if err != nil {
		return err
	}
	lanes := float64(len(inputs))
	lr.steps = append(lr.steps, stepRec{op, ms(wall + extra), lanes * float64(stats.Instructions), lanes * float64(stats.MACs)})
	lr.diverged += len(st.ch.DivergedLanes())
	for l := range inputs {
		lr.v.op(program, nil, &core.Result{Stats: stats, Output: outs[l]}, want[l])
	}
	return nil
}

// finish derives the metrics that combine spans, whole calls and steps;
// opLat are the latencies of the workload's real ops, reported under host.
// as what a user sees on this host, too noisy here to gate on (README).
func (lr *layerRun) finish(opLat []float64) {
	v := lr.vals
	by := lr.tr.selfByOp()
	spanMetrics(v, by)
	var sums, walls, nsInstr, nsMAC []float64
	for _, s := range lr.steps {
		total := 0.0
		for _, name := range lowerSteps {
			total += by[name][s.op]
		}
		sums, walls = append(sums, total), append(walls, s.wallMS)
		nsInstr = append(nsInstr, 1e6*by["sim.run"][s.op]/s.instr)
		nsMAC = append(nsMAC, 1e6*by["sim.run"][s.op]/s.macs)
	}
	v["sim.ns_per_instr"] = quantile(nsInstr, 0.5)
	v["sim.ns_per_mac"] = quantile(nsMAC, 0.5)
	v["sim.diverged_lanes"] = float64(lr.diverged)
	if whole := quantile(lr.whole, 0.5); whole > 0 {
		v["core.infer_ms"] = whole
		v["core.infer_residual_pct"] = 100 * (whole - quantile(sums, 0.5)) / whole
		v["host.trace_overhead_pct"] = 100 * (quantile(walls, 0.5) - whole) / whole
	}
	v["host.op_ms_p50"] = quantile(opLat, 0.50)
	v["host.op_ms_tail"] = quantile(opLat, tailPercentile(len(opLat)))
	v["host.round_spread_pct"] = roundSpreadPct(opLat, 4)
}

// probeLanes measures, on untraced chips of their own, one serial op, one
// lane group of 2, 4 and 8 inputs (sim.lanes_speedup.k = k x serial / group
// time) and one serial op on a chip whose scheduler spreads over all host
// cores (sim.workers_speedup).
func probeLanes(ctx context.Context, v values, c *compiler.Compiled, ws model.WeightStore, inputs []cimflow.Tensor) error {
	best := func(st *stepper, k, reps int) (float64, error) {
		lo := 0.0
		for r := 0; r < reps; r++ {
			_, _, wall, err := st.infer(ctx, 0, inputs[:k])
			if err != nil {
				return 0, err
			}
			if r == 0 || ms(wall) < lo {
				lo = ms(wall)
			}
		}
		return lo, nil
	}
	// The serial baseline is a one-lane chip, as a session without lanes
	// builds it: a chip with lane capacity also resets its idle lanes.
	warm := func(lanes, workers int) (*stepper, float64, error) {
		st, err := newStepper(nil, 0, c, ws, lanes, workers)
		if err != nil {
			return nil, 0, err
		}
		if _, err := best(st, 1, 1); err != nil { // first run: fresh chip, no reset
			return nil, 0, err
		}
		lo, err := best(st, 1, 2)
		return st, lo, err
	}
	_, serial, err := warm(1, 1)
	if err != nil {
		return err
	}
	lanes, _, err := warm(8, 1)
	if err != nil {
		return err
	}
	for _, k := range []int{2, 4, 8} {
		group, err := best(lanes, k, 1)
		if err != nil {
			return err
		}
		v["sim.lanes_speedup."+string(rune('0'+k))] = float64(k) * serial / group
	}
	_, spread, err := warm(1, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	v["sim.workers_speedup"] = serial / spread
	return nil
}

func (w warmSpec) traced(ctx context.Context, c *config, tr *tracer) (*outcome, error) {
	lr := newLayerRun(tr)
	name := w.modelName(c)
	g, err := cimflow.LookupModel(name)
	if err != nil {
		return nil, err
	}
	inputs := seededInputs(g.Nodes[0].OutShape, c.seed, warmInputs)
	want, cost, err := golden(ctx, g, c.seed, inputs)
	if err != nil {
		return nil, err
	}
	lr.vals["model.golden_exec_ms"] = ms(cost)
	p := &program{name, cimflow.DefaultConfig(), compiler.Options{Strategy: compiler.StrategyGeneric}}
	key := programKey(name, p.opt.Strategy, &p.cfg)

	// Set-up, layer by layer: compile walk, then the core session with its
	// first inference, then this run's own chip for the step-by-step ops.
	setupOp := tr.newOp()
	compiled, blob, err := walkCompile(tr, setupOp, p)
	if err != nil {
		return nil, err
	}
	lr.vals["artifact.blob_kb"] = float64(blob) / 1024
	staticMetrics(lr.vals, []*compiler.Compiled{compiled})
	ws := model.NewSeededWeights(g, c.seed)
	t0 := time.Now()
	sess, first, err := coreSession(ctx, tr, setupOp, compiled, ws, w.lanes, w.batch(inputs, 0))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	lr.core(key, time.Since(t0), first, nil, w.batch(want, 0))
	lr.whole = lr.whole[:0] // the first inference built the chip: not a warm sample
	simMetrics(lr.vals, []*sim.Stats{first[0].Stats})
	st, err := newStepper(tr, setupOp, compiled, ws, w.lanes, 1)
	if err != nil {
		return nil, err
	}
	if err := lr.step(ctx, st, setupOp, 0, key, w.batch(inputs, 0), w.batch(want, 0)); err != nil {
		return nil, err
	}
	lr.steps = lr.steps[:0] // likewise: the fresh chip skipped reset and zeroing

	// Timed phase: the real op and the same op step by step, alternating.
	from := markHost()
	ops := 0
	for i := 1; time.Since(from.at) < c.timedFor(1) && (c.maxOps() == 0 || ops < c.maxOps()); i++ {
		batch, wantB := w.batch(inputs, i), w.batch(want, i)
		t0 := time.Now()
		res, err := coreInfer(ctx, sess, batch)
		lr.core(key, time.Since(t0), res, err, wantB)
		if err := lr.step(ctx, st, tr.newOp(), 0, key, batch, wantB); err != nil {
			return nil, err
		}
		ops += 2 * w.lanes
	}
	hostMetrics(lr.vals, from, markHost(), ops)

	if err := probeLanes(ctx, lr.vals, compiled, ws, inputs); err != nil {
		return nil, err
	}
	var runs, lanes float64
	for b, n := range sess.LaneOccupancy() {
		runs, lanes = runs+float64(n), lanes+float64(b)*float64(n)
	}
	lr.vals["core.lane_occupancy_mean"] = lanes / max(runs, 1)
	lr.vals["core.lane_fallbacks"] = float64(sess.LaneFallbacks())
	lr.finish(lr.whole)
	return &outcome{lr.vals, lr.v}, nil
}

// minWalk is how many points the cold walk visits even when time is up.
const minWalk = 3

func tracedCold(ctx context.Context, c *config, tr *tracer) (*outcome, error) {
	lr := newLayerRun(tr)
	grid := coldSpace(c)
	points, round0, err := coldPoints(c, grid)
	if err != nil {
		return nil, err
	}
	refs, cost, err := coldGolden(ctx, grid.models, c.seed)
	if err != nil {
		return nil, err
	}
	lr.vals["model.golden_exec_ms"] = ms(cost) / float64(len(grid.models))

	// The default-architecture round on the sweep engine itself: the dse
	// layer's own numbers, and one run of each program for the exact counts.
	cache := cimflow.NewCompileCache()
	from := markHost()
	done, ends, wall := sweep(ctx, points[:round0], coldWorkers, cache)
	lat, _ := coldVerify(lr.v, done, ends, refs)
	hostMetrics(lr.vals, from, markHost(), len(done))
	var compileMS, simMS []float64
	var compiled []*compiler.Compiled
	var stats []*sim.Stats
	for _, r := range done {
		compileMS, simMS = append(compileMS, ms(r.CompileTime)), append(simMS, ms(r.SimTime))
		if r.Err == nil {
			compiled, stats = append(compiled, r.Result.Compiled), append(stats, r.Result.Stats)
		}
	}
	staticMetrics(lr.vals, compiled)
	simMetrics(lr.vals, stats)
	v := lr.vals
	v["dse.point_compile_ms_p50"] = quantile(compileMS, 0.5)
	v["dse.point_sim_ms_p50"] = quantile(simMS, 0.5)
	v["dse.compile_share"] = sum(compileMS) / max(sum(lat), 1e-9)
	v["dse.compile_calls"] = float64(cache.CompileCalls())
	v["dse.cache_hits"] = float64(cache.Hits())
	v["dse.contexts"] = float64(cache.Contexts())
	v["dse.parallel_efficiency"] = sum(lat) / (ms(wall) * coldWorkers)

	// The walk: points one at a time, every layer of a cold point step by
	// step, then the same compiled point through core's whole calls.
	start := time.Now()
	var blobs float64
	for i, pt := range points {
		if i >= minWalk && time.Since(start) >= c.timedFor(1) {
			break
		}
		p := &program{pt.Model, pt.Config, compiler.Options{Strategy: pt.Strategy}}
		key := programKey(pt.Model, pt.Strategy, &pt.Config)
		op := tr.newOp()
		cp, blob, err := walkCompile(tr, op, p)
		if err != nil {
			return nil, err
		}
		blobs += float64(blob) / 1024
		ws := model.NewSeededWeights(cp.Graph, pt.Seed)
		in := []cimflow.Tensor{cimflow.SeededInput(cp.Graph.Nodes[0].OutShape, pt.Seed+1)}
		ref := []cimflow.Tensor{refs[pt.Model]}
		t0 := time.Now()
		st, err := newStepper(tr, op, cp, ws, 1, 1)
		if err != nil {
			return nil, err
		}
		if err := lr.step(ctx, st, op, time.Since(t0), key, in, ref); err != nil {
			return nil, err
		}
		t0 = time.Now()
		sess, res, err := coreSession(ctx, tr, op, cp, ws, 1, in)
		lr.core(key, time.Since(t0), res, err, ref)
		if err == nil {
			sess.Close()
		}
	}
	v["artifact.blob_kb"] = blobs / float64(max(len(lr.steps), 1))
	lr.finish(lat) // the op is a sweep point, not a core call
	return &outcome{v, lr.v}, nil
}

func tracedServe(ctx context.Context, c *config, tr *tracer) (*outcome, error) {
	lr := newLayerRun(tr)
	v := lr.vals
	inputs, want, cost, err := serveRefs(ctx, c.seed)
	if err != nil {
		return nil, err
	}
	v["model.golden_exec_ms"] = ms(cost) / float64(len(serveModels))
	sys, err := serveSetup(ctx, c, inputs)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	cfg := cimflow.DefaultConfig()

	// Layer walk of the five programs; each keeps a chip for the steps.
	steppers := make([]*stepper, len(serveModels))
	sessions := make(map[string]*cimflow.Session, len(serveModels))
	keys := make([]string, len(serveModels))
	var compiled []*compiler.Compiled
	var stats []*sim.Stats
	var blobs float64
	for m, name := range serveModels {
		p := &program{name, cfg, compiler.Options{Strategy: serveStrategy}}
		keys[m] = programKey(name, serveStrategy, &cfg)
		op := tr.newOp()
		cp, blob, err := walkCompile(tr, op, p)
		if err != nil {
			return nil, err
		}
		blobs += float64(blob) / 1024
		compiled = append(compiled, cp)
		ws := model.NewSeededWeights(cp.Graph, c.seed)
		if steppers[m], err = newStepper(tr, op, cp, ws, 1, 1); err != nil {
			return nil, err
		}
		first := inputs[m][:1]
		if err := lr.step(ctx, steppers[m], op, 0, keys[m], first, want[m][:1]); err != nil {
			return nil, err
		}
		sess, res, err := coreSession(ctx, tr, op, cp, ws, 1, first)
		if err != nil {
			return nil, err
		}
		sess.Close()
		stats = append(stats, res[0].Stats)
		// The session the replica's server dispatches to.
		if sessions[name], err = sys.engines[0].SessionFor(name); err != nil {
			return nil, err
		}
	}
	lr.steps = lr.steps[:0] // fresh-chip steps are not warm samples
	v["artifact.blob_kb"] = blobs / float64(len(serveModels))
	staticMetrics(v, compiled)
	simMetrics(v, stats)

	// The same request mix down four paths, one closed-loop client each:
	// session direct, step by step, through a server, through the router.
	mix := serveTrace(c.seed, 0xd, 200)
	if n := c.maxOps(); n > 0 {
		mix = mix[:n]
	}
	one := func(infer inferFunc) []float64 {
		var lat []float64
		for _, rq := range mix {
			t0 := time.Now()
			res, err := infer(ctx, serveModels[rq.model], inputs[rq.model][rq.input])
			lat = append(lat, ms(time.Since(t0)))
			lr.v.op(keys[rq.model], err, res, want[rq.model][rq.input])
		}
		return lat
	}
	direct := one(func(ctx context.Context, name string, in cimflow.Tensor) (*cimflow.Result, error) {
		return sessions[name].Infer(ctx, in)
	})
	lr.whole = direct
	for _, rq := range mix {
		in, ref := inputs[rq.model][rq.input:rq.input+1], want[rq.model][rq.input:rq.input+1]
		if err := lr.step(ctx, steppers[rq.model], tr.newOp(), 0, keys[rq.model], in, ref); err != nil {
			return nil, err
		}
	}
	server := one(sys.servers[0].Infer)
	routed := func(ctx context.Context, name string, in cimflow.Tensor) (*cimflow.Result, error) {
		return sys.router.Infer(ctx, "", name, in)
	}
	router := one(routed)
	v["serve.overhead_ms"] = quantile(server, 0.5) - quantile(direct, 0.5)
	v["cluster.hop_us"] = 1000 * (quantile(router, 0.5) - quantile(server, 0.5))

	// Load with the queues sampled: the untraced run's phase A, shorter,
	// then the closed loop whose saturation throughput is too noisy on this
	// host to gate on (README, "Noise").
	var depthMax int
	stop, sampled := make(chan struct{}), sync.WaitGroup{}
	sampled.Add(1)
	go func() {
		defer sampled.Done()
		tick := time.NewTicker(serveSampleQ)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				depth := 0
				for _, srv := range sys.servers {
					for _, mm := range srv.Metrics().Models {
						depth += mm.QueueDepth
					}
				}
				depthMax = max(depthMax, depth)
			}
		}
	}()
	arrivals := max(int(serveRate*c.timedFor(0.4).Seconds()), 1)
	clients := serveClients
	if n := c.maxOps(); n > 0 {
		arrivals, clients = min(arrivals, n), 2
	}
	from := markHost()
	a := openPhase(ctx, routed, inputs, serveTrace(c.seed, 0xa, arrivals), serveRate)
	b := closedPhase(ctx, routed, inputs, c.seed, clients, c.timedFor(0.2))
	to := markHost()
	close(stop)
	sampled.Wait()
	latA, _ := a.verify(lr.v, "phase A (open loop)", want)
	_, donesB := b.verify(lr.v, "closed loop", want)
	v["serve.closed_rps"] = float64(len(donesB)) / b.wall.Seconds()
	hostMetrics(v, from, to, len(a.recs)+len(b.recs))
	lags := make([]float64, len(a.lags))
	for i, d := range a.lags {
		lags[i] = ms(d)
	}

	// The highest offered rate that keeps p99 within the limit with nothing
	// failed, each rate its own short open-loop phase.
	const sloLimitMS = 50
	var sloRate float64
	if !c.smoke {
		for _, rate := range []int{50, 100, 150, 200} {
			n := int(float64(rate) * c.timedFor(0.1).Seconds())
			failedBefore := lr.v.failed
			ph := openPhase(ctx, routed, inputs, serveTrace(c.seed, 0xe+uint64(rate), n), rate)
			lat, _ := ph.verify(lr.v, "SLO ladder", want)
			if lr.v.failed == failedBefore && quantile(lat, 0.99) <= sloLimitMS {
				sloRate = float64(rate)
			}
		}
	}

	var batches, batched, accepted, shed, expired, failed float64
	for _, srv := range sys.servers {
		for _, mm := range srv.Metrics().Models {
			for size, n := range mm.BatchHist {
				batches, batched = batches+float64(n), batched+float64(size)*float64(n)
			}
			accepted, shed = accepted+float64(mm.Accepted), shed+float64(mm.Shed)
			expired, failed = expired+float64(mm.Expired), failed+float64(mm.Failed)
		}
	}
	rm := sys.router.Metrics()
	var quota float64
	for _, t := range rm.Tenants {
		quota += float64(t.RejectedQuota)
	}
	lr.finish(latA) // the op is a served request: latencies of the open loop
	v["serve.batch_mean"] = batched / max(batches, 1)
	v["serve.accepted"], v["serve.shed"], v["serve.expired"], v["serve.failed"] = accepted, shed, expired, failed
	v["serve.queue_depth_max"] = float64(depthMax)
	v["serve.slo_rate_rps"] = sloRate
	v["cluster.hedges"] = float64(rm.HedgesLaunched)
	v["cluster.rejected_quota"] = quota
	v["host.loadgen_lag_ms_p99"] = quantile(lags, 0.99)
	return &outcome{v, lr.v}, nil
}
