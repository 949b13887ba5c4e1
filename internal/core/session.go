package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// ErrClosed is returned by every Session method after Close: the pooled
// chips are released and the session accepts no further work. Callers
// detect it with errors.Is.
var ErrClosed = errors.New("core: session closed")

// Session is a compiled model prepared for repeated inference: the
// pre-tiled weight segments are built once, and simulated chips are pooled
// and reset between runs instead of rebuilt, so the cost of one Infer is
// just the cycle-accurate simulation itself. A Session is safe for
// concurrent use; each in-flight Infer owns one chip.
//
// Pooled runs are byte-identical to fresh-chip runs: Chip.Reset clears all
// core/NoC state, the scratch ranges (input, activations, padding) are
// zeroed, and the resident weight segments are exactly what StaticInit
// would rewrite. Reset restores the cores' data planes to power-on state by
// clearing what the chip's runs since the last Reset touched — pages of
// local memory, macro groups, in the lanes that ran — so an acquire costs
// what the previous inference wrote, not what the chip allocates (64 MB per
// lane at the default architecture); a chip that errored or was cancelled
// mid-run is covered by the same record.
type Session struct {
	compiled *compiler.Compiled
	ws       model.WeightStore
	opt      Options
	// cfg is a stable copy referenced by every chip the session builds. It is
	// allocated on its own so that a chip outliving the session (a Rig's)
	// keeps the copy alive, not the session with its weights.
	cfg     *arch.Config
	static  []sim.GlobalSegment
	scratch [][2]int
	free    chan *sim.Chip

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

// NewSession stages a compiled model for inference with the given weights.
// Options.Strategy and FullBufferLimit are ignored here (they were consumed
// at compile time); CycleLimit and MaxPooledChips apply per run.
func NewSession(compiled *compiler.Compiled, ws model.WeightStore, opt Options) (*Session, error) {
	static, err := compiled.StaticInit(ws)
	if err != nil {
		return nil, err
	}
	poolCap := opt.MaxPooledChips
	if poolCap <= 0 {
		poolCap = runtime.GOMAXPROCS(0)
	}
	if opt.SimLanes < 1 {
		opt.SimLanes = 1
	}
	if opt.SimLanes > sim.MaxLanes {
		return nil, fmt.Errorf("core: SimLanes %d exceeds sim.MaxLanes %d", opt.SimLanes, sim.MaxLanes)
	}
	cfg := *compiled.Cfg
	return &Session{
		compiled: compiled,
		ws:       ws,
		opt:      opt,
		cfg:      &cfg,
		static:   static,
		scratch:  compiled.ScratchRanges(),
		free:     make(chan *sim.Chip, poolCap),
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

// PooledChips reports how many idle pre-initialized chips the session
// currently holds.
func (s *Session) PooledChips() int { return len(s.free) }

// PoolCap reports the session's chip-pool capacity: the maximum number of
// idle chips kept for reuse, and the default fan-out of InferBatch.
func (s *Session) PoolCap() int { return cap(s.free) }

// Closed reports whether Close has been called.
func (s *Session) Closed() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.closed
}

// Close releases every pooled chip and marks the session closed: further
// Infer/InferBatch/Validate calls fail with ErrClosed. In-flight runs
// complete normally; their chips are dropped instead of re-pooled. Close is
// idempotent.
func (s *Session) Close() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for {
		select {
		case <-s.free:
		default:
			return nil
		}
	}
}

// newChip builds a fresh chip with programs loaded and weights staged.
func (s *Session) newChip() (*sim.Chip, error) {
	var chipOpts []sim.ChipOption
	if s.opt.SimLanes > 1 {
		chipOpts = append(chipOpts, sim.WithLanes(s.opt.SimLanes))
	}
	ch, err := sim.NewChip(s.cfg, chipOpts...)
	if err != nil {
		return nil, err
	}
	return ch, s.stage(ch)
}

// stage readies a chip built with the session's chip options for its
// program: global memory grown to the layout, the cycle limit, every core's
// program and the weights. That is all a new chip needs; a chip that ran
// another program also needs what acquire does to a pooled one, and global
// memory past this layout zeroed (Rig.Simulate).
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

// acquire returns a ready-to-run chip with the requested lane occupancy
// set: a pooled one reset to pristine state, or a freshly built one when
// the pool is empty. A chip it cannot make ready goes back to the pool — the
// next acquire resets it again — so an error here costs no rebuild.
func (s *Session) acquire(lanes int) (*sim.Chip, error) {
	if s.Closed() {
		return nil, ErrClosed
	}
	var ch *sim.Chip
	var err error
	select {
	case ch = <-s.free:
		ch.Reset()
		for _, r := range s.scratch {
			if err = ch.ZeroGlobal(r[0], r[1]); err != nil {
				break
			}
		}
	default:
		if ch, err = s.newChip(); err != nil {
			return nil, err
		}
	}
	if err == nil {
		err = ch.SetLanes(lanes)
	}
	if err != nil {
		s.release(ch)
		return nil, err
	}
	return ch, nil
}

// release returns a chip to the pool, dropping it when the pool is full or
// the session closed. Chips that errored or were cancelled mid-run are safe
// to return: acquire resets all dynamic state before reuse.
func (s *Session) release(ch *sim.Chip) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.free <- ch:
	default:
	}
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
	ch, err := s.acquire(b)
	if err != nil {
		return nil, err
	}
	results, err := s.runLanes(ctx, ch, addr, inputs)
	s.release(ch)
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
	return s.InferBatchN(ctx, inputs, cap(s.free))
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
	lanes := s.opt.SimLanes
	if lanes < 1 {
		lanes = 1
	}
	// Lane groups are consecutive input spans; group g covers
	// inputs[g*lanes : min((g+1)*lanes, len)].
	groups := (len(inputs) + lanes - 1) / lanes
	span := func(g int) (int, int) {
		lo := g * lanes
		hi := lo + lanes
		if hi > len(inputs) {
			hi = len(inputs)
		}
		return lo, hi
	}
	runGroup := func(ctx context.Context, g int) error {
		lo, hi := span(g)
		res, err := s.inferLanes(ctx, inputs[lo:hi])
		if err != nil {
			return err
		}
		copy(results[lo:hi], res)
		return nil
	}
	workers := parallel
	if workers <= 0 {
		workers = cap(s.free)
	}
	if workers > groups {
		workers = groups
	}
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
