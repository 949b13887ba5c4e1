package cimflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"cimflow/internal/artifact"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/dse"
	"cimflow/internal/model"
)

// Lifecycle errors, matched with errors.Is.
var (
	// ErrSessionClosed is returned by Session methods after Session.Close
	// (or Engine.Close): its pooled chips are released and the session
	// accepts no further work.
	ErrSessionClosed = core.ErrClosed
	// ErrEngineClosed is returned by Engine.Session/SessionFor after
	// Engine.Close.
	ErrEngineClosed = errors.New("cimflow: engine closed")
)

// Compile provenance re-exported from internal/dse.
type (
	// CompileInfo reports whether a session's compiled artifact was
	// compiled fresh or served from the compile cache, and how long
	// producing it took.
	CompileInfo = dse.CompileInfo
	// CompileSource is the origin in a CompileInfo.
	CompileSource = dse.CompileSource
)

// CompileInfo sources.
const (
	// CompileFresh: the compiler ran.
	CompileFresh = dse.SourceFresh
	// CompileMemory: served from the in-memory compile cache.
	CompileMemory = dse.SourceMemory
)

// Option configures an Engine or a Session built from it: engine-level
// options set defaults, and Session-level options override them per model.
type Option func(*settings)

// settings is the resolved option set: what compiles a Session's model and
// generates its weights, and the internal session options.
type settings struct {
	core.Options
	strategy Strategy
	seed     uint64
}

// WithStrategy selects the CG-level compilation strategy (default:
// StrategyGeneric).
func WithStrategy(s Strategy) Option {
	return func(o *settings) { o.strategy = s }
}

// WithSeed sets the deterministic synthetic-weight seed a Session loads
// its model parameters from (default 0).
func WithSeed(seed uint64) Option {
	return func(o *settings) { o.seed = seed }
}

// WithMaxPooledChips bounds the engine's live chips, idle or running, in the
// one pool all its Sessions share (0 = GOMAXPROCS); an inference that finds
// them all busy waits. An idle chip goes first to the session it was last
// staged for, else it is restaged for another, so a larger n buys fewer
// restages and more concurrent inferences with memory (per lane, what a
// chip's programs touch: on mobilenetv2 at the default architecture about
// 9 MB of the 32 MB of local memory a lane addresses, and 0.17 MB of its
// 3.5 MB of global memory — the pages with scratch bytes; the weights are
// tiled once per session, and all its chips read the tiles in place).
// Engine-level only: Session ignores it.
func WithMaxPooledChips(n int) Option {
	return func(o *settings) { o.MaxPooledChips = n }
}

// WithSimWorkers does nothing: a chip has one scheduler, the serial loop.
// Parallelism is across chips (WithMaxPooledChips, the server's workers)
// and across lanes (WithSimLanes).
//
// Deprecated: the windowed parallel scheduler it sized was slower than the
// serial loop on every zoo model (EXPERIMENTS.md) and is gone. Kept only
// because the frozen bench/ calls it; it goes with those calls in the next
// benchmark PR.
func WithSimWorkers(int) Option {
	return func(*settings) {}
}

// WithSimLanes sets a Session's lane-batch capacity (at most
// sim.MaxLanes, 64): InferBatch packs up to n inputs into one
// lane-batched chip run, paying the cycle-accurate schedule — dispatch,
// scoreboard, NoC and energy accounting — once for the whole group while
// applying per-input data effects in stride. Per-lane results are
// bit-identical to per-input runs; a lane whose data would change control
// flow diverges and is transparently re-run alone. 0 or 1 means one lane.
func WithSimLanes(n int) Option {
	return func(o *settings) { o.SimLanes = n }
}

// Engine is the reusable entry point of the framework: one architecture
// plus a compile cache, per-(model, strategy) inference Sessions and one
// bounded chip pool they share (WithMaxPooledChips). An Engine compiles
// each (model, strategy, …) combination exactly once — reusing the DSE
// fingerprint cache, so sweeps and serving share artifacts — and a chip
// stays staged for the session that last ran on it until another needs it,
// for compile-once/infer-many workloads. Compilation is context-aware: the
// cache keys on the graph's frontend artifact, so all strategies and option
// variants of one model share a single CompileContext and recompile only the
// planning and codegen stages. An Engine is safe for concurrent use.
type Engine struct {
	cfg      Config
	defaults settings
	cache    *dse.CompileCache
	pool     *core.Pool

	mu       sync.Mutex
	sessions map[sessionKey]*sessionEntry
	closed   bool
}

// sessionEntry is one singleflight Session slot: the first caller compiles
// and stages weights, concurrent callers share the result (mirroring the
// CompileCache pattern one layer up).
type sessionEntry struct {
	once sync.Once
	s    *Session
	err  error
}

// sessionKey identifies a cached Session: the graph's structural
// fingerprint plus every option that changes compilation, weights or run
// behavior (the chip bound is the engine's, not a session's). Structural
// identity (not pointer identity) means a serving loop may re-look a model
// up per request and still reuse one Session.
type sessionKey struct {
	graph    string // artifact.GraphFingerprint
	strategy Strategy
	seed     uint64
	simLanes int
}

// NewEngine validates the architecture and returns an Engine whose
// Sessions share one compile cache. Options set the engine-wide defaults;
// Session can override them per model.
func NewEngine(cfg Config, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		sessions: make(map[sessionKey]*sessionEntry),
	}
	for _, opt := range opts {
		opt(&e.defaults)
	}
	e.pool = core.NewPool(e.defaults.MaxPooledChips)
	e.cache = dse.NewCompileCache()
	return e, nil
}

// Config returns the engine's architecture description.
func (e *Engine) Config() Config { return e.cfg }

// CompileCalls reports how many real compilations the engine has performed;
// with Sessions reused it stays at one per distinct (model, strategy, …).
func (e *Engine) CompileCalls() int64 { return e.cache.CompileCalls() }

// CacheHits reports how many compilations were served from the cache.
func (e *Engine) CacheHits() int64 { return e.cache.Hits() }

// PooledChips reports the idle chips in the engine's pool — the pool
// introspection a serving layer reports in its metrics.
func (e *Engine) PooledChips() int { return e.pool.Idle() }

// Close closes the engine's chip pool, dropping every idle chip, which closes
// every session the engine built (in-flight inferences finish before their
// chips are dropped); marks the engine closed (Session and SessionFor fail
// with ErrEngineClosed). Close is idempotent and always returns nil.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		e.pool.Close()
	}
	return nil
}

// Session returns the compile-once/infer-many handle for a model:
// repeated calls with a structurally identical graph and the same options
// return the same Session, so its compiled artifact and staged chips are
// shared — re-looking a model up per request is safe and stays
// compile-once.
func (e *Engine) Session(g *Graph, opts ...Option) (*Session, error) {
	if g == nil {
		return nil, fmt.Errorf("cimflow: nil graph")
	}
	st := e.defaults
	for _, opt := range opts {
		opt(&st)
	}
	key := sessionKey{
		graph:    artifact.GraphFingerprint(g),
		strategy: st.strategy,
		seed:     st.seed,
		simLanes: st.SimLanes,
	}
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, ErrEngineClosed
		}
		entry, ok := e.sessions[key]
		if !ok {
			entry = new(sessionEntry)
			e.sessions[key] = entry
		}
		e.mu.Unlock()
		// Build outside the map lock: concurrent first-time callers of one
		// key await a single compilation and a single weight-staging pass.
		entry.once.Do(func() {
			compiled, info, err := e.cache.CompileWithInfo(g, &e.cfg, compiler.Options{Strategy: st.strategy})
			if err != nil {
				entry.err = fmt.Errorf("cimflow: compile %s: %w", g.Name, err)
				return
			}
			inner, err := e.pool.NewSession(compiled, model.NewSeededWeights(g, st.seed), st.Options)
			if err != nil {
				entry.err = err
				return
			}
			entry.s = &Session{inner: inner, graph: g, compileInfo: info}
		})
		// A closed session is stale: drop the entry and retry instead of
		// handing out a handle that only returns ErrSessionClosed. When a
		// concurrent caller already replaced the entry, retry as well — the
		// next iteration picks up the fresh one, or ErrEngineClosed if the
		// engine closed, closing the sessions, meanwhile (or while this one
		// was building).
		if entry.err == nil && entry.s.inner.Closed() {
			e.mu.Lock()
			if e.sessions[key] == entry {
				delete(e.sessions, key)
			}
			e.mu.Unlock()
			continue
		}
		return entry.s, entry.err
	}
}

// SessionFor looks a model up by name (see LookupModel) and returns its
// Session. Sessions key on the graph's structural fingerprint, so the
// per-request pattern of a serving loop reuses one Session per model.
func (e *Engine) SessionFor(name string, opts ...Option) (*Session, error) {
	g, err := LookupModel(name)
	if err != nil {
		return nil, err
	}
	return e.Session(g, opts...)
}

// Session is a compiled model bound to an Engine: per-core programs built
// once, weights staged once, runs on the engine's pooled chips. It is
// safe for concurrent use — the serving pattern is one Session shared by
// many goroutines, each calling Infer with its own input.
type Session struct {
	inner       *core.Session
	graph       *Graph
	compileInfo dse.CompileInfo
}

// Graph returns the model the session runs.
func (s *Session) Graph() *Graph { return s.graph }

// CompileInfo reports how this session's compiled artifact was produced —
// fresh compile or in-memory cache hit — and how long that production
// took.
func (s *Session) CompileInfo() CompileInfo { return s.compileInfo }

// Compiled returns the compiled artifact (programs, plan, layout).
func (s *Session) Compiled() *Compiled { return s.inner.Compiled() }

// InputShape returns the tensor shape Infer expects.
func (s *Session) InputShape() Shape { return s.inner.InputShape() }

// PooledChips reports how many idle chips of the engine's pool were last
// staged for the session.
func (s *Session) PooledChips() int { return s.inner.PooledChips() }

// SimLanes reports the session's lane-batch capacity (>= 1, see
// WithSimLanes).
func (s *Session) SimLanes() int { return s.inner.SimLanes() }

// LaneOccupancy returns a histogram of completed chip runs by lane
// occupancy: entry b counts runs that carried b inferences.
func (s *Session) LaneOccupancy() []int64 { return s.inner.LaneOccupancy() }

// LaneFallbacks reports how many lanes diverged during multi-lane runs
// and were transparently re-run alone.
func (s *Session) LaneFallbacks() int64 { return s.inner.LaneFallbacks() }

// Closed reports whether the session has been closed.
func (s *Session) Closed() bool { return s.inner.Closed() }

// Close drops the idle chips last staged for the session and marks it
// closed: further Infer/InferBatch/Validate calls fail with
// ErrSessionClosed. In-flight inferences finish normally; their chips are
// dropped instead of re-pooled. Close is idempotent, and the engine builds
// a fresh session on the next request for the same model and options.
func (s *Session) Close() error { return s.inner.Close() }

// SeededInput returns a deterministic input tensor of the session's input
// shape — a stand-in for real data in tests and demos.
func (s *Session) SeededInput(seed uint64) Tensor {
	return model.SeededInput(s.inner.InputShape(), seed)
}

// Infer executes one inference on a pooled chip and returns the full
// result: output tensor, chip-level Stats, and derived metrics. Cancelling
// ctx aborts the cycle-accurate simulation mid-run with an error wrapping
// ctx.Err().
func (s *Session) Infer(ctx context.Context, input Tensor) (*Result, error) {
	return s.inner.Infer(ctx, input)
}

// InferBatch runs one inference per input, fanning out across the chip
// pool. Results align with inputs; on failure the remaining runs are
// cancelled and the root-cause error is returned.
func (s *Session) InferBatch(ctx context.Context, inputs []Tensor) ([]*Result, error) {
	return s.inner.InferBatch(ctx, inputs)
}

// Validate runs one inference and compares it against the golden reference
// executor, returning the number of mismatching elements (0 = bit-exact).
func (s *Session) Validate(ctx context.Context, input Tensor) (int, error) {
	return s.inner.Validate(ctx, input)
}

// LookupModel returns a built-in benchmark network by name: resnet18,
// vgg19, mobilenetv2, efficientnetb0, or one of the tiny validation
// networks. An unknown name is an error naming the known models;
// ModelNames lists them.
func LookupModel(name string) (*Graph, error) {
	if g := model.Zoo(name); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("cimflow: unknown model %q (known models: %s)",
		name, strings.Join(model.ZooNames(), ", "))
}

// SeededInput returns a deterministic INT8 input tensor for a shape.
func SeededInput(shape Shape, seed uint64) Tensor {
	return model.SeededInput(shape, seed)
}
