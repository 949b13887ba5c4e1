package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// ErrClosed is returned by every Session method after Close: the session's
// pooled chips are released and it accepts no further work. Callers detect
// it with errors.Is.
var ErrClosed = errors.New("core: session closed")

// Session is a compiled model prepared for repeated inference: the
// pre-tiled weight segments are built once, and its runs take chips from a
// Pool — an Engine's or a sweep's, shared by all their sessions, or a private
// one — so the cost of one Infer is just the cycle-accurate simulation
// itself. A Session is safe for concurrent use; each in-flight Infer owns one
// chip.
//
// Pooled runs are byte-identical to fresh-chip runs. A chip that ran another
// session is first restaged (restage). Then Chip.Reset restores its cores'
// data planes to power-on state by clearing what its runs since the last
// Reset touched — pages of local memory, macro groups, in the lanes that ran,
// a run that errored or was cancelled included — and the scratch ranges
// (input, activations, padding) are zeroed; the resident weight segments are
// exactly what StaticInit would rewrite. So an acquire costs what the last
// inference wrote, not what the chip backs.
type Session struct {
	compiled *compiler.Compiled
	ws       model.WeightStore
	opt      Options
	// cfg is a stable copy referenced by every chip the session stages. It
	// is allocated on its own so that a pooled chip outliving the session
	// keeps the copy alive, not the session with its weights.
	cfg     *arch.Config
	static  []sim.GlobalSegment
	scratch [][2]int
	pool    *Pool
	// id names the session to the pool's chips; see pooled.owner.
	id uint64

	// Lane-batch observability: laneRuns[b] counts chip runs that carried
	// b lanes of occupancy, laneFallbacks counts lanes that diverged and
	// were re-run serially.
	laneRuns      []atomic.Int64
	laneFallbacks atomic.Int64

	// testForceDiverge, when set by tests, marks extra lanes of a run as
	// diverged so the re-run path is exercised without crafting
	// data-dependent control flow.
	testForceDiverge func(b int) []int
	// testStageErr, when set by tests, fails a run on its acquired chip
	// before any input is staged: the one early exit of runLanes that no
	// well-formed session reaches.
	testStageErr error

	pmu    sync.Mutex // guards closed and pool membership on release
	closed bool
}

// NewSession stages a compiled model for inference with the given weights,
// on a private Pool of at most Options.MaxPooledChips live chips.
// Options.Strategy is ignored here (it was consumed at compile time);
// CycleLimit applies per run.
func NewSession(compiled *compiler.Compiled, ws model.WeightStore, opt Options) (*Session, error) {
	return NewPool(opt.MaxPooledChips).NewSession(compiled, ws, opt)
}

// NewSession is core.NewSession on the pool's chips; Options.MaxPooledChips
// is ignored.
func (p *Pool) NewSession(compiled *compiler.Compiled, ws model.WeightStore, opt Options) (*Session, error) {
	static, err := compiled.StaticInit(ws)
	if err != nil {
		return nil, err
	}
	if opt.SimLanes < 1 {
		opt.SimLanes = 1
	}
	if opt.SimLanes > sim.MaxLanes {
		return nil, fmt.Errorf("core: SimLanes %d exceeds sim.MaxLanes %d", opt.SimLanes, sim.MaxLanes)
	}
	cfg := *compiled.Cfg
	cfg.Name = "" // so that restage compares hardware only
	return &Session{
		compiled: compiled,
		ws:       ws,
		opt:      opt,
		cfg:      &cfg,
		static:   static,
		scratch:  compiled.ScratchRanges(),
		pool:     p,
		id:       sessionIDs.Add(1),
		laneRuns: make([]atomic.Int64, opt.SimLanes+1),
	}, nil
}

// SimLanes reports the session's lane-batch capacity (>= 1).
func (s *Session) SimLanes() int { return s.opt.SimLanes }

// LaneOccupancy returns a histogram of chip runs by lane occupancy:
// entry b counts completed runs that carried b inferences. Entry 0 is
// always zero.
func (s *Session) LaneOccupancy() []int64 {
	occ := make([]int64, len(s.laneRuns))
	for i := range s.laneRuns {
		occ[i] = s.laneRuns[i].Load()
	}
	return occ
}

// LaneFallbacks reports how many lanes diverged from lane 0's control
// flow and were re-run alone.
func (s *Session) LaneFallbacks() int64 { return s.laneFallbacks.Load() }

// Compiled returns the compiled artifact the session runs.
func (s *Session) Compiled() *compiler.Compiled { return s.compiled }

// Weights returns the session's weight store (used by Validate and the
// golden reference executor).
func (s *Session) Weights() model.WeightStore { return s.ws }

// InputShape returns the tensor shape Infer expects.
func (s *Session) InputShape() model.Shape { return s.compiled.Graph.Nodes[0].OutShape }

// PooledChips reports how many idle chips in the session's pool were last
// staged for it: the ones its next runs take as they are.
func (s *Session) PooledChips() int {
	return s.pool.count(func(c *pooled) bool { return c.owner == s.id })
}

// PoolCap reports the bound of the session's chip pool: the most chips live
// at once across every session sharing it, and the default fan-out of
// InferBatch.
func (s *Session) PoolCap() int { return s.pool.Bound() }

// Closed reports whether Close has been called, on the session or on its
// pool.
func (s *Session) Closed() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return s.closed || s.pool.closed
}

// Close drops the pooled chips last staged for the session and marks it
// closed: further Infer/InferBatch/Validate calls fail with ErrClosed.
// In-flight runs complete normally; their chips are dropped instead of
// re-pooled. Close is idempotent.
func (s *Session) Close() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if !s.closed {
		s.closed = true
		s.pool.drop(func(c *pooled) bool { return c.owner == s.id })
	}
	return nil
}

// newChip builds a fresh chip with programs loaded and weights staged.
func (s *Session) newChip() (*sim.Chip, error) {
	ch, err := sim.NewChip(s.cfg, sim.WithLanes(s.opt.SimLanes))
	if err != nil {
		return nil, err
	}
	return ch, s.stage(ch)
}

// stage readies a chip built with the session's chip options for its
// program: global memory sized to the layout, the cycle limit, every core's
// program and memory, and the weights. That is all a new chip needs; a chip
// that ran another program also needs restage first and a Reset after.
func (s *Session) stage(ch *sim.Chip) error {
	ch.EnsureGlobal(s.compiled.GlobalBytes())
	ch.CycleLimit = s.opt.CycleLimit
	if err := ch.LoadPrograms(s.compiled.Programs); err != nil {
		return err
	}
	for _, seg := range s.static {
		if err := ch.InitGlobal(seg); err != nil {
			return err
		}
	}
	return nil
}

// restage readies c, a chip last staged for another session, for s: one of
// another architecture is retargeted, which leaves it as newChip builds it.
func (s *Session) restage(c *pooled) error {
	if *s.cfg != *c.cfg {
		if err := c.ch.Retarget(s.cfg); err != nil {
			return err
		}
	}
	return s.stage(c.ch)
}

// acquire returns a ready-to-run chip from the pool with the requested lane
// occupancy set: one last staged for s reset to pristine state, one of
// another session restaged and reset, or a freshly built one, waiting while
// the pool is at its bound until a chip is released or ctx is done. A chip
// that cannot be restaged or built is dropped; one staged for s that it
// cannot make ready goes back to the pool — the next acquire resets it
// again — so such an error costs no rebuild.
func (s *Session) acquire(ctx context.Context, lanes int) (*pooled, error) {
	if s.Closed() {
		return nil, ErrClosed
	}
	c, how, err := s.pool.take(ctx, s)
	if err != nil {
		return nil, err
	}
	if how == takeNew {
		c.ch, err = s.newChip()
	} else if how == takeOther {
		err = s.restage(c)
	}
	if err != nil {
		s.pool.put(c, false)
		return nil, err
	}
	c.owner, c.cfg = s.id, s.cfg
	if how != takeNew {
		c.ch.Reset()
		for _, r := range s.scratch {
			if err = c.ch.ZeroGlobal(r[0], r[1]); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = c.ch.SetLanes(lanes)
	}
	if err != nil {
		s.release(c)
		return nil, err
	}
	return c, nil
}

// release returns a chip to the pool, dropping it when the session closed.
// Chips that errored or were cancelled mid-run are safe to return: acquire
// resets all dynamic state before reuse.
func (s *Session) release(c *pooled) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.pool.put(c, !s.closed)
}

// Infer executes one inference with the given input tensor on a pooled
// chip: a one-lane run. Cancelling ctx aborts the simulation mid-run with an
// error wrapping ctx.Err().
func (s *Session) Infer(ctx context.Context, input tensor.Tensor) (*Result, error) {
	res, err := s.inferLanes(ctx, []tensor.Tensor{input})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// cloneStats makes an independent copy of a run's shared stats so each
// per-lane Result owns its Stats.
func cloneStats(st *sim.Stats) *sim.Stats {
	cp := *st
	cp.Cores = append([]sim.CoreStats(nil), st.Cores...)
	return &cp
}

// inferLanes executes 1..SimLanes inputs as one chip run, one lane each:
// the cycle-accurate schedule is paid once, with per-lane data effects
// applied in stride. Lanes whose data diverges from lane 0's control flow
// are re-run on their own, so every returned Result is bit-identical to a
// one-lane run of the same input.
func (s *Session) inferLanes(ctx context.Context, inputs []tensor.Tensor) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := len(inputs)
	addr := 0
	for _, in := range inputs {
		var err error
		if addr, err = s.compiled.InputAddr(in); err != nil {
			return nil, err
		}
	}
	c, err := s.acquire(ctx, b)
	if err != nil {
		return nil, err
	}
	results, err := s.runLanes(ctx, c.ch, addr, inputs)
	s.release(c)
	if err != nil {
		return nil, err
	}
	s.laneRuns[b].Add(1)
	// Divergent lanes carried garbage data past the first mismatching
	// load; replay each alone for the exact per-input run. Lane 0 is the
	// lane the others are compared against, so a one-lane run never
	// diverges and the recursion ends there.
	for l := range results {
		if results[l] != nil {
			continue
		}
		s.laneFallbacks.Add(1)
		res, err := s.Infer(ctx, inputs[l])
		if err != nil {
			return nil, err
		}
		results[l] = res
	}
	return results, nil
}

// runLanes stages one input per lane at addr on an acquired chip, runs it
// and reads the outputs back; the entries of diverged lanes stay nil. It
// owns no part of the chip's lifetime: inferLanes releases the chip after
// every exit from here, early errors included.
func (s *Session) runLanes(ctx context.Context, ch *sim.Chip, addr int, inputs []tensor.Tensor) ([]*Result, error) {
	if s.testStageErr != nil {
		return nil, s.testStageErr
	}
	b := len(inputs)
	for l, in := range inputs {
		if err := ch.InitGlobalLaneInt8(l, addr, in.Data); err != nil {
			return nil, err
		}
	}
	// Tag the simulation with the model name and lane occupancy so CPU
	// profiles split by workload; the simulator's own scheduler adds the
	// phase labels.
	var stats *sim.Stats
	var err error
	pprof.Do(ctx, pprof.Labels("model", s.compiled.Graph.Name, "sim-lanes", strconv.Itoa(b)), func(ctx context.Context) {
		stats, err = ch.Run(ctx)
	})
	if err != nil {
		return nil, fmt.Errorf("core: simulating %s (lanes=%d): %w", s.compiled.Graph.Name, b, err)
	}
	diverged := ch.DivergedLanes()
	if s.testForceDiverge != nil {
		diverged = append(diverged, s.testForceDiverge(b)...)
	}
	results := make([]*Result, b)
	for l := range results {
		if slices.Contains(diverged, l) {
			continue
		}
		out, err := s.compiled.ReadOutput(func(addr, size int) ([]byte, error) {
			return ch.ReadGlobalLane(l, addr, size)
		})
		if err != nil {
			return nil, err
		}
		laneStats := stats
		if l > 0 {
			laneStats = cloneStats(stats)
		}
		results[l] = newResult(s.compiled, laneStats, out, s.cfg.ClockGHz)
	}
	return results, nil
}

// InferBatch runs one inference per input, fanning out across the chip
// pool. Results align with inputs; on failure the remaining runs are
// cancelled and the root-cause error is returned (entries that did not
// complete stay nil).
func (s *Session) InferBatch(ctx context.Context, inputs []tensor.Tensor) ([]*Result, error) {
	return s.InferBatchN(ctx, inputs, s.PoolCap())
}

// InferBatchN is the batch dispatch hook behind InferBatch: it runs one
// inference per input with at most parallel simulations in flight
// (parallel <= 0 means the pool capacity). With SimLanes > 1 the inputs
// are first packed into consecutive lane groups of up to SimLanes, and
// each group runs as one lane-batched chip simulation — lanes fill
// before additional chips fan out. A serving layer dispatching coalesced
// batches from its own worker pool passes parallel = 1 so total chip
// parallelism is governed by the number of serving workers, not
// multiplied by the batch size.
func (s *Session) InferBatchN(ctx context.Context, inputs []tensor.Tensor, parallel int) ([]*Result, error) {
	results := make([]*Result, len(inputs))
	if len(inputs) == 0 {
		return results, ctx.Err()
	}
	// Lane groups are consecutive input spans.
	lanes := s.opt.SimLanes
	groups := (len(inputs) + lanes - 1) / lanes
	runGroup := func(ctx context.Context, g int) error {
		lo, hi := g*lanes, min((g+1)*lanes, len(inputs))
		res, err := s.inferLanes(ctx, inputs[lo:hi])
		if err != nil {
			return err
		}
		copy(results[lo:hi], res)
		return nil
	}
	if parallel <= 0 {
		parallel = s.PoolCap()
	}
	workers := min(parallel, groups)
	if workers <= 1 {
		for g := 0; g < groups; g++ {
			if err := runGroup(ctx, g); err != nil {
				return results, err
			}
		}
		return results, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		// Induced cancellations never precede the root cause: fail is
		// called with the real error before cancel() propagates.
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range idx {
				if err := runGroup(runCtx, g); err != nil {
					fail(err)
				}
			}
		}()
	}
	for g := 0; g < groups; g++ {
		idx <- g
	}
	close(idx)
	wg.Wait()
	return results, firstErr
}

// Validate runs one inference and compares it element-for-element against
// the golden reference executor using the session's weights; it returns
// the number of mismatching output elements (0 = exact functional match).
func (s *Session) Validate(ctx context.Context, input tensor.Tensor) (int, error) {
	res, err := s.Infer(ctx, input)
	if err != nil {
		return -1, err
	}
	refs, err := model.Execute(s.compiled.Graph, input, s.ws)
	if err != nil {
		return -1, err
	}
	ref := refs[s.compiled.OutputNode]
	if ref.Len() != res.Output.Len() {
		return -1, fmt.Errorf("core: output size %d != reference %d", res.Output.Len(), ref.Len())
	}
	mismatches := 0
	for i := range ref.Data {
		if ref.Data[i] != res.Output.Data[i] {
			mismatches++
		}
	}
	return mismatches, nil
}
