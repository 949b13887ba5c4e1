package main

import (
	"context"
	"time"

	"cimflow"
)

// warmSpec is a warm-session workload: one model compiled with the generic
// strategy at the default architecture, one session with a single pooled
// chip and the serial scheduler, one closed-loop client. An op is one
// inference; with lanes > 1 the client submits batches of that many
// distinct inputs and an inference's latency is its batch's wall time.
type warmSpec struct {
	model      string
	smokeModel string
	lanes      int
}

var (
	warmMVM   = warmSpec{model: "resnet18", smokeModel: "tinyresnet", lanes: 1}
	warmLanes = warmSpec{model: "mobilenetv2", smokeModel: "tinymobile", lanes: 8}
)

// warmInputs is how many distinct seeded inputs a warm workload cycles.
const warmInputs = 8

func (w warmSpec) modelName(c *config) string {
	if c.smoke {
		return w.smokeModel
	}
	return w.model
}

// warmSys is the system under test of a warm workload.
type warmSys struct {
	engine *cimflow.Engine
	sess   *cimflow.Session
}

// setup builds engine and session and runs one warm-up call, which builds
// the session's chip at full lane capacity; with lanes it carries only two
// inputs, enough to enter the lane executor, so that the set-up is cheap
// enough to repeat.
func (w warmSpec) setup(ctx context.Context, c *config, g *cimflow.Graph, inputs []cimflow.Tensor) (*warmSys, error) {
	e, err := cimflow.NewEngine(cimflow.DefaultConfig(), cimflow.WithSeed(c.seed),
		cimflow.WithStrategy(cimflow.StrategyGeneric), cimflow.WithMaxPooledChips(1),
		cimflow.WithSimWorkers(1), cimflow.WithSimLanes(w.lanes))
	if err != nil {
		return nil, err
	}
	s, err := e.Session(g)
	if err != nil {
		e.Close()
		return nil, err
	}
	if _, err := w.infer(ctx, s, w.batch(inputs, 0)[:min(w.lanes, 2)]); err != nil {
		e.Close()
		return nil, err
	}
	return &warmSys{e, s}, nil
}

// batch returns the i-th batch: lanes inputs, rotated so that an input
// does not always ride the same lane.
func (w warmSpec) batch(inputs []cimflow.Tensor, i int) []cimflow.Tensor {
	b := make([]cimflow.Tensor, w.lanes)
	for l := range b {
		b[l] = inputs[(i+l)%len(inputs)]
	}
	return b
}

// infer submits one batch the way a client would.
func (w warmSpec) infer(ctx context.Context, s *cimflow.Session, batch []cimflow.Tensor) ([]*cimflow.Result, error) {
	if w.lanes == 1 {
		res, err := s.Infer(ctx, batch[0])
		return []*cimflow.Result{res}, err
	}
	return s.InferBatch(ctx, batch)
}

// warmOp is one timed batch, kept for verification after the timed phase.
type warmOp struct {
	first int           // the batch's index: which rotation of the inputs
	end   time.Duration // completion, from the timed phase's start
	res   []*cimflow.Result
	err   error
}

// verify checks a batch's inferences against the golden outputs and
// returns its completion event: the ones that passed.
func (w warmSpec) verify(v *verifier, program string, op warmOp, want []cimflow.Tensor) done {
	d := done{at: op.end}
	for l, ref := range w.batch(want, op.first) {
		var res *cimflow.Result
		if op.err == nil {
			res = op.res[l]
		}
		if v.op(program, op.err, res, ref) {
			d.ops, d.instr = d.ops+1, d.instr+res.Stats.Instructions
		}
	}
	return d
}

func (w warmSpec) run(ctx context.Context, c *config) (*outcome, error) {
	name := w.modelName(c)
	g, err := cimflow.LookupModel(name)
	if err != nil {
		return nil, err
	}
	inputs := seededInputs(g.Nodes[0].OutShape, c.seed, warmInputs)
	sys, setups, err := repeatSetup(c,
		func() (*warmSys, error) { return w.setup(ctx, c, g, inputs) },
		func(s *warmSys) { s.engine.Close() })
	if err != nil {
		return nil, err
	}
	defer sys.engine.Close()
	want, _, err := golden(ctx, g, c.seed, inputs)
	if err != nil {
		return nil, err
	}

	// One full batch outside both timings: whatever the chip allocates on
	// its first run at full lane occupancy is paid before the timed phase.
	if _, err := w.infer(ctx, sys.sess, w.batch(inputs, 0)); err != nil {
		return nil, err
	}

	p := &phase{name: c.workload, setups: setups, group: groupEvents(1)}
	var ops []warmOp
	d := c.timedFor(1)
	p.from = markHost()
	for i := 0; time.Since(p.from.at) < d && (c.maxOps() == 0 || i*w.lanes < c.maxOps()); i++ {
		t0 := time.Now()
		res, err := w.infer(ctx, sys.sess, w.batch(inputs, i))
		lat := ms(time.Since(t0))
		ops = append(ops, warmOp{first: i, end: time.Since(p.from.at), res: res, err: err})
		for l := 0; l < w.lanes; l++ {
			p.lat = append(p.lat, lat)
		}
	}
	p.to = markHost()
	p.heapMB = heapLiveMB()

	v := newVerifier()
	cfg := sys.engine.Config()
	program := programKey(name, cimflow.StrategyGeneric, &cfg)
	for _, op := range ops {
		p.dones = append(p.dones, w.verify(v, program, op, want))
	}
	p.allOps = v.attempted
	return &outcome{p.endToEnd(v, nil), v}, nil
}
