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
	// (or Engine.Close): the pooled chips are released and the session
	// accepts no further work.
	ErrSessionClosed = core.ErrClosed
	// ErrEngineClosed is returned by Engine.Session/SessionFor after
	// Engine.Close.
	ErrEngineClosed = errors.New("cimflow: engine closed")
)

// Option configures an Engine or a Session built from it: engine-level
// options set defaults, and Session-level options override them per model.
type Option func(*settings)

// settings is the resolved option set; it reuses the internal flat struct.
type settings struct {
	core.Options
	cache *dse.CompileCache
	store *artifact.Store
}

// WithStrategy selects the CG-level compilation strategy (default:
// StrategyGeneric).
func WithStrategy(s Strategy) Option {
	return func(o *settings) { o.Strategy = s }
}

// WithSeed sets the deterministic synthetic-weight seed a Session loads
// its model parameters from (default 0).
func WithSeed(seed uint64) Option {
	return func(o *settings) { o.Seed = seed }
}

// WithCycleLimit overrides the simulator's runaway guard (0 = default).
func WithCycleLimit(cycles int64) Option {
	return func(o *settings) { o.CycleLimit = cycles }
}

// WithFullBufferLimit forwards the compiler's streaming threshold override
// (0 = default): activations larger than this stream through ring buffers
// instead of being staged whole in local memory.
func WithFullBufferLimit(bytes int32) Option {
	return func(o *settings) { o.FullBufferLimit = bytes }
}

// WithMaxPooledChips caps how many idle pre-initialized chips a Session
// keeps for reuse (0 = GOMAXPROCS). More pooled chips serve more
// concurrent Infer calls without re-staging weights, at the price of
// memory: each chip holds the model's full global-memory image.
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

// WithCompileCache shares a compile cache with the engine — e.g. one a DSE
// sweep over the same architecture already populated, so serving reuses
// the sweep's artifacts. Passed to NewEngine it becomes the engine's
// cache; passed to Session it applies to that session's compilation only
// (engine-level CompileCalls/CacheHits keep reporting the engine's cache).
func WithCompileCache(c *CompileCache) Option {
	return func(o *settings) { o.cache = c }
}

// WithArtifactStore attaches an on-disk artifact store as the engine
// compile cache's second tier (memory → store → compile): compiles missing
// in memory are loaded from the store when present, fresh compiles are
// persisted for the next process, and a warm restart skips compilation
// entirely. The engine takes ownership of the store — Engine.Close closes
// it. Engine-level only; it configures the engine's cache at NewEngine
// time and is ignored by Session.
func WithArtifactStore(s *ArtifactStore) Option {
	return func(o *settings) { o.store = s }
}

// Engine is the reusable entry point of the framework: one architecture
// plus a compile cache and per-(model, strategy) inference Sessions. An
// Engine compiles each (model, strategy, …) combination exactly
// once — reusing the DSE fingerprint cache, so sweeps and serving share
// artifacts — and Sessions pool pre-initialized chips (weights staged
// once, activation state reset between runs) for compile-once/infer-many
// workloads. Compilation is context-aware: the cache keys on the graph's
// frontend artifact, so all strategies and option variants of one model
// share a single CompileContext and recompile only the planning and
// codegen stages. An Engine is safe for concurrent use.
type Engine struct {
	cfg      Config
	defaults settings
	cache    *dse.CompileCache
	store    *artifact.Store

	mu       sync.Mutex
	sessions map[sessionKey]*sessionEntry
	closed   bool
}

// sessionEntry is one singleflight Session slot: the first caller stages
// weights and builds the chip pool, concurrent callers share the result
// (mirroring the CompileCache pattern one layer up). ready closes when the
// build finished, letting Close and PooledChips inspect entries without
// blocking behind an in-flight build.
type sessionEntry struct {
	once  sync.Once
	ready chan struct{}
	s     *Session
	err   error
}

// sessionKey identifies a cached Session: the graph's structural
// fingerprint plus every option that changes compilation, weights or run
// behavior. Structural identity (not pointer identity) means a serving
// loop may re-look a model up per request and still reuse one Session.
type sessionKey struct {
	graph      string // dse.GraphFingerprint
	strategy   Strategy
	fbl        int32
	seed       uint64
	cycleLimit int64
	maxPooled  int
	simLanes   int
	cache      *CompileCache
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
	e.cache = e.defaults.cache
	if e.cache == nil {
		e.cache = dse.NewCompileCache()
	}
	if e.defaults.store != nil {
		e.store = e.defaults.store
		e.cache.SetStore(e.store)
	}
	return e, nil
}

// Config returns the engine's architecture description.
func (e *Engine) Config() Config { return e.cfg }

// CompileCalls reports how many real compilations the engine has performed;
// with Sessions reused it stays at one per distinct (model, strategy, …).
func (e *Engine) CompileCalls() int64 { return e.cache.CompileCalls() }

// CacheHits reports how many compilations were served from the cache.
func (e *Engine) CacheHits() int64 { return e.cache.Hits() }

// StoreLoads reports how many compilations were satisfied by decoding an
// artifact from the attached store (0 without WithArtifactStore).
func (e *Engine) StoreLoads() int64 { return e.cache.StoreLoads() }

// ArtifactStore returns the store attached with WithArtifactStore, or nil.
func (e *Engine) ArtifactStore() *ArtifactStore { return e.store }

// CompileContexts reports how many distinct graph frontends the engine's
// compile cache holds: compilations are keyed on the frontend artifact, so
// every strategy or option variant of one model shares a single
// CompileContext (condensation once, planning memoized per architecture).
func (e *Engine) CompileContexts() int { return e.cache.Contexts() }

// PooledChips sums the idle pre-initialized chips held across all of the
// engine's live sessions — the engine-level pool introspection a serving
// layer reports in its metrics.
func (e *Engine) PooledChips() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, entry := range e.sessions {
		if s := entry.session(); s != nil {
			total += s.PooledChips()
		}
	}
	return total
}

// Sessions reports how many distinct (model, options) sessions the engine
// currently holds.
func (e *Engine) Sessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// Close closes every session the engine built — draining and releasing
// their pooled chips — marks the engine closed (Session and SessionFor
// fail with ErrEngineClosed, and in-flight inferences on existing sessions
// finish before their chips are dropped), and closes the attached artifact
// store, releasing its directory lock. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, entry := range e.sessions {
		if s := entry.session(); s != nil {
			s.Close()
		}
	}
	e.mu.Unlock()
	// Outside the engine lock: a store close waits on nothing internal,
	// but keeping lock scopes minimal mirrors the rest of the engine.
	if e.store != nil {
		return e.store.Close()
	}
	return nil
}

// session returns the entry's built session without blocking on an
// in-flight build: nil when the build has not completed (or failed).
func (en *sessionEntry) session() *Session {
	select {
	case <-en.ready:
		return en.s
	default:
		return nil
	}
}

// Session returns the compile-once/infer-many handle for a model:
// repeated calls with a structurally identical graph and the same options
// return the same Session, so its compiled artifact and chip pool are
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
	cache := st.cache
	if cache == nil {
		cache = e.cache
	}
	key := sessionKey{
		graph:      dse.GraphFingerprint(g),
		strategy:   st.Strategy,
		fbl:        st.FullBufferLimit,
		seed:       st.Seed,
		cycleLimit: st.CycleLimit,
		maxPooled:  st.MaxPooledChips,
		simLanes:   st.SimLanes,
		cache:      cache,
	}
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, ErrEngineClosed
		}
		entry, ok := e.sessions[key]
		if !ok {
			entry = &sessionEntry{ready: make(chan struct{})}
			e.sessions[key] = entry
		}
		e.mu.Unlock()
		// Build outside the map lock: concurrent first-time callers of one
		// key await a single compilation and a single weight-staging pass.
		entry.once.Do(func() {
			defer close(entry.ready)
			compiled, info, err := cache.CompileWithInfo(g, &e.cfg, compiler.Options{
				Strategy:        st.Strategy,
				FullBufferLimit: st.FullBufferLimit,
			})
			if err != nil {
				entry.err = fmt.Errorf("cimflow: compile %s: %w", g.Name, err)
				return
			}
			inner, err := core.NewSession(compiled, model.NewSeededWeights(g, st.Seed), st.Options)
			if err != nil {
				entry.err = err
				return
			}
			entry.s = &Session{inner: inner, graph: g, compileInfo: info}
		})
		<-entry.ready
		// The engine may have closed while this entry was building; its
		// session missed Engine.Close's sweep, so release it here.
		e.mu.Lock()
		closedNow := e.closed
		e.mu.Unlock()
		if closedNow {
			if entry.err == nil {
				entry.s.inner.Close()
			}
			return nil, ErrEngineClosed
		}
		// A session closed by the caller (not by Engine.Close) is stale:
		// drop the entry and retry instead of handing out a handle that
		// only returns ErrSessionClosed. When a concurrent caller already
		// replaced the entry, retry as well — the next iteration picks up
		// the fresh one (or ErrEngineClosed if the engine closed meanwhile).
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
// once, weights staged once, chips pooled and reset between runs. It is
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
// fresh compile, artifact-store load, or in-memory cache hit — and how
// long that production took, so operators can see warm-start wins.
func (s *Session) CompileInfo() CompileInfo { return s.compileInfo }

// Compiled returns the compiled artifact (programs, plan, layout).
func (s *Session) Compiled() *Compiled { return s.inner.Compiled() }

// InputShape returns the tensor shape Infer expects.
func (s *Session) InputShape() Shape { return s.inner.InputShape() }

// PooledChips reports how many idle pre-initialized chips the session holds.
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

// Close drains and releases the session's pooled chips and marks it
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
