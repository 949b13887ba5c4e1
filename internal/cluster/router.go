package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cimflow/internal/core"
	"cimflow/internal/model"
	"cimflow/internal/serve"
	"cimflow/internal/tensor"
)

// Option configures a Router, mirroring the Engine's functional-option
// style.
type Option func(*routerOptions)

type routerOptions struct {
	vnodes             int
	hedgeDelay         time.Duration
	hedgeBudget        float64
	hedgeBurst         float64
	backendConcurrency int
	checkInterval      time.Duration
	checkTimeout       time.Duration
	ejectAfter         int
	readmitAfter       int
	shedThreshold      float64
	tenants            []TenantConfig
	now                func() time.Time
}

// WithVirtualNodes sets how many points each backend owns on the
// consistent-hash ring (default 64): more points smooth the placement
// distribution at the cost of a larger ring.
func WithVirtualNodes(n int) Option { return func(o *routerOptions) { o.vnodes = n } }

// WithHedgeDelay sets how long the router waits on the first attempt
// before launching a budgeted hedge on the next preferred backend (default
// 25ms; 0 disables hedging).
func WithHedgeDelay(d time.Duration) Option { return func(o *routerOptions) { o.hedgeDelay = d } }

// WithHedgeBudget sets the fraction of admitted requests allowed to hedge
// or retry (default 0.1): each admission credits this many tokens to a
// shared bucket, each hedge or failover retry spends one, so extra load
// from hedging is bounded at ~budget x offered rate.
func WithHedgeBudget(frac float64) Option { return func(o *routerOptions) { o.hedgeBudget = frac } }

// WithBackendConcurrency sets the in-flight request count at which a
// backend is considered saturated and placement falls back from the hash
// owner to the least-loaded healthy replica (default 64).
func WithBackendConcurrency(n int) Option {
	return func(o *routerOptions) { o.backendConcurrency = n }
}

// WithCheckInterval sets the active health-check period (default 1s; 0
// disables the background checker — tests drive CheckNow directly).
func WithCheckInterval(d time.Duration) Option { return func(o *routerOptions) { o.checkInterval = d } }

// WithEjectAfter sets how many consecutive failed health checks eject a
// backend from placement (default 3).
func WithEjectAfter(n int) Option { return func(o *routerOptions) { o.ejectAfter = n } }

// WithReadmitAfter sets how many consecutive successful checks re-admit an
// ejected backend (default 2).
func WithReadmitAfter(n int) Option { return func(o *routerOptions) { o.readmitAfter = n } }

// WithPriorityShedThreshold sets the fleet load fraction (total in-flight
// over total healthy capacity) at or above which PriorityBatch traffic is
// shed before reaching a backend (default 0.75).
func WithPriorityShedThreshold(frac float64) Option {
	return func(o *routerOptions) { o.shedThreshold = frac }
}

// WithTenant registers a tenant's priority class and quota.
func WithTenant(cfg TenantConfig) Option {
	return func(o *routerOptions) { o.tenants = append(o.tenants, cfg) }
}

// withClock injects a fake clock for quota tests.
func withClock(now func() time.Time) Option { return func(o *routerOptions) { o.now = now } }

// backendState is one registered replica: the backend plus the router-side
// load, health and placement accounting.
type backendState struct {
	b          Backend
	inflight   atomic.Int64
	placements atomic.Int64
	hedged     atomic.Int64
	healthy    atomic.Bool
	ejections  atomic.Int64
	// Consecutive check outcomes, guarded by the router's healthMu.
	consecFail int
	consecOK   int
}

// tenantState is one tenant's live admission state and counters.
type tenantState struct {
	cfg   TenantConfig
	quota *bucket // nil when unmetered
	m     tenantStats
}

// Router is the sharded serving tier's front-end: it owns the backend set,
// the consistent-hash ring, tenant quotas and the hedge budget, and places
// every request on a healthy replica. A Router is safe for concurrent use.
type Router struct {
	opt routerOptions
	now func() time.Time

	mu       sync.RWMutex
	backends map[string]*backendState
	ring     *ring
	tenants  map[string]*tenantState
	closed   bool

	hedge *bucket
	m     routerCounters

	healthMu   sync.Mutex
	stopHealth chan struct{}
	healthDone chan struct{}
}

// routerCounters are the router-level atomic counters.
type routerCounters struct {
	hedgesLaunched atomic.Int64
	hedgesWon      atomic.Int64
	retries        atomic.Int64
	fallbacks      atomic.Int64
}

// New builds a router. Backends are registered with AddBackend; the
// background health checker starts with the first backend.
func New(opts ...Option) *Router {
	o := routerOptions{
		vnodes:             64,
		hedgeDelay:         25 * time.Millisecond,
		hedgeBudget:        0.1,
		hedgeBurst:         16,
		backendConcurrency: 64,
		checkInterval:      time.Second,
		ejectAfter:         3,
		readmitAfter:       2,
		shedThreshold:      0.75,
		now:                time.Now,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.checkTimeout <= 0 {
		o.checkTimeout = o.checkInterval
		if o.checkTimeout <= 0 || o.checkTimeout > 500*time.Millisecond {
			o.checkTimeout = 500 * time.Millisecond
		}
	}
	r := &Router{
		opt:      o,
		now:      o.now,
		backends: make(map[string]*backendState),
		ring:     buildRing(nil, o.vnodes),
		tenants:  make(map[string]*tenantState),
		hedge:    newBucket(0, o.hedgeBurst, o.now()),
	}
	// Unlike a quota bucket, the hedge budget starts empty: hedges are an
	// earned fraction of admitted traffic, not a free initial burst.
	r.hedge.tokens = 0
	for _, cfg := range o.tenants {
		cfg = cfg.withDefaults()
		r.tenants[cfg.Name] = r.newTenantState(cfg)
	}
	if o.checkInterval > 0 {
		r.stopHealth = make(chan struct{})
		r.healthDone = make(chan struct{})
		go r.healthLoop()
	}
	return r
}

func (r *Router) newTenantState(cfg TenantConfig) *tenantState {
	ts := &tenantState{cfg: cfg}
	ts.m.lat = serve.NewLatencyWindow(tenantLatencyWindow)
	if cfg.Rate > 0 {
		ts.quota = newBucket(cfg.Rate, cfg.Burst, r.now())
	}
	return ts
}

// AddBackend registers a replica and rebuilds the ring. The backend starts
// healthy (optimistically); the health checker ejects it if its first
// probes fail.
func (r *Router) AddBackend(b Backend) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRouterClosed
	}
	name := b.Name()
	if _, ok := r.backends[name]; ok {
		return fmt.Errorf("cluster: backend %q already registered", name)
	}
	bs := &backendState{b: b}
	bs.healthy.Store(true)
	r.backends[name] = bs
	r.rebuildRingLocked()
	return nil
}

// RemoveBackend deregisters a replica; its models remap to the survivors.
func (r *Router) RemoveBackend(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.backends[name]; !ok {
		return fmt.Errorf("cluster: backend %q not registered", name)
	}
	delete(r.backends, name)
	r.rebuildRingLocked()
	return nil
}

// rebuildRingLocked rebuilds the hash ring from the registered set.
func (r *Router) rebuildRingLocked() {
	members := make([]string, 0, len(r.backends))
	for name := range r.backends {
		members = append(members, name)
	}
	sort.Strings(members)
	r.ring = buildRing(members, r.opt.vnodes)
}

// Backends lists the registered backend names, sorted.
func (r *Router) Backends() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.backends))
	for name := range r.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Models unions the model names served across healthy backends, sorted.
func (r *Router) Models() []string {
	r.mu.RLock()
	states := make([]*backendState, 0, len(r.backends))
	for _, bs := range r.backends {
		if bs.healthy.Load() {
			states = append(states, bs)
		}
	}
	r.mu.RUnlock()
	seen := make(map[string]bool)
	var names []string
	for _, bs := range states {
		for _, m := range bs.b.Models() {
			if !seen[m] {
				seen[m] = true
				names = append(names, m)
			}
		}
	}
	sort.Strings(names)
	return names
}

// InputShape reports a model's expected input shape from the first healthy
// backend in the model's preference order.
func (r *Router) InputShape(name string) (model.Shape, error) {
	prefs := r.placement(name)
	var lastErr error = ErrNoBackends
	for _, bs := range prefs {
		shape, err := bs.b.InputShape(name)
		if err == nil {
			return shape, nil
		}
		lastErr = err
	}
	return model.Shape{}, lastErr
}

// tenant resolves (and lazily creates) a tenant's state: registered
// tenants keep their WithTenant contract, unknown ones (the anonymous ""
// tenant too) are PriorityStandard and unmetered under their own name, so
// quotas and metrics stay per-tenant.
func (r *Router) tenant(name string) *tenantState {
	r.mu.RLock()
	ts := r.tenants[name]
	r.mu.RUnlock()
	if ts != nil {
		return ts
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts = r.tenants[name]; ts != nil {
		return ts
	}
	ts = r.newTenantState(TenantConfig{Name: name, Priority: PriorityStandard}.withDefaults())
	r.tenants[name] = ts
	return ts
}

// placement returns the model's healthy backends in dispatch-preference
// order: the consistent-hash owner first (so warm artifact and chip pools
// stay sticky), successors after it for hedges and failover — unless the
// owner is saturated, in which case the least-loaded healthy replica moves
// to the front (hot models spread).
func (r *Router) placement(model string) []*backendState {
	r.mu.RLock()
	ring := r.ring
	prefs := ring.preference(model)
	states := make([]*backendState, 0, len(prefs))
	for _, name := range prefs {
		if bs := r.backends[name]; bs != nil && bs.healthy.Load() {
			states = append(states, bs)
		}
	}
	r.mu.RUnlock()
	if len(states) == 0 {
		return nil
	}
	if states[0].inflight.Load() >= int64(r.opt.backendConcurrency) {
		least := 0
		for i, bs := range states {
			if bs.inflight.Load() < states[least].inflight.Load() {
				least = i
			}
		}
		if least != 0 {
			states[0], states[least] = states[least], states[0]
			r.m.fallbacks.Add(1)
		}
	}
	return states
}

// attemptOutcome is one backend attempt's reply.
type attemptOutcome struct {
	res    *core.Result
	err    error
	idx    int
	hedged bool
}

// Infer routes one request: tenant admission (quota, priority class), then
// consistent-hash placement with hedged retries. "" is the anonymous
// tenant. The returned output is byte-identical to a direct Session.Infer
// on any replica — replicas are deterministic, so hedging never changes
// results, only latency.
func (r *Router) Infer(ctx context.Context, tenant, model string, input tensor.Tensor) (*core.Result, error) {
	start := r.now()
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrRouterClosed
	}
	ts := r.tenant(tenant)
	ts.m.sent.Add(1)
	if err := ctx.Err(); err != nil {
		ts.m.expired.Add(1)
		return nil, err
	}
	if ts.quota != nil && !ts.quota.take(start, 1) {
		ts.m.rejectedQuota.Add(1)
		return nil, fmt.Errorf("%w: tenant %q over %g req/s", ErrQuotaExceeded, ts.cfg.Name, ts.cfg.Rate)
	}
	if ts.cfg.Priority <= PriorityBatch {
		if load, capacity := r.load(); capacity > 0 && float64(load) >= r.opt.shedThreshold*float64(capacity) {
			ts.m.rejectedPriority.Add(1)
			return nil, fmt.Errorf("cluster: %w: batch tenant %q shed at fleet load %d/%d",
				serve.ErrOverloaded, ts.cfg.Name, load, capacity)
		}
	}
	// Every admitted request funds the hedge budget.
	r.hedge.credit(start, r.opt.hedgeBudget)

	prefs := r.placement(model)
	if len(prefs) == 0 {
		ts.m.rejectedNoBackend.Add(1)
		return nil, fmt.Errorf("%w for model %q", ErrNoBackends, model)
	}
	res, err := r.dispatch(ctx, prefs, ts, model, input)
	switch {
	case err == nil:
		ts.m.completed.Add(1)
		ts.m.lat.Observe(r.now().Sub(start))
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		ts.m.expired.Add(1)
	default:
		ts.m.failed.Add(1)
	}
	return res, err
}

// dispatch runs the attempt loop over the preference list: the primary
// first, a budgeted hedge on the next replica once hedgeDelay passes
// without a reply, and budgeted immediate failover when an attempt sheds
// or the backend is unreachable. The first success wins and cancels every
// losing attempt.
func (r *Router) dispatch(ctx context.Context, prefs []*backendState, ts *tenantState,
	model string, input tensor.Tensor) (*core.Result, error) {
	resCh := make(chan attemptOutcome, len(prefs))
	cancels := make([]context.CancelFunc, 0, len(prefs))
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	launch := func(i int, hedged bool) {
		bs := prefs[i]
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		bs.inflight.Add(1)
		bs.placements.Add(1)
		if hedged {
			bs.hedged.Add(1)
		}
		go func() {
			res, err := bs.b.Infer(actx, model, input)
			bs.inflight.Add(-1)
			resCh <- attemptOutcome{res: res, err: err, idx: i, hedged: hedged}
		}()
	}
	launch(0, false)
	next, outstanding := 1, 1

	// Hedging spends extra capacity to cut tail latency; batch traffic is
	// not entitled to it.
	var hedgeC <-chan time.Time
	if r.opt.hedgeDelay > 0 && ts.cfg.Priority > PriorityBatch && next < len(prefs) {
		timer := time.NewTimer(r.opt.hedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var lastErr error
	for {
		select {
		case out := <-resCh:
			outstanding--
			if out.err == nil {
				if out.hedged {
					r.m.hedgesWon.Add(1)
				}
				return out.res, nil
			}
			lastErr = out.err
			if Retryable(out.err) && next < len(prefs) && r.hedge.take(r.now(), 1) {
				r.m.retries.Add(1)
				launch(next, false)
				next++
				outstanding++
				continue
			}
			if outstanding == 0 {
				return nil, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(prefs) && r.hedge.take(r.now(), 1) {
				r.m.hedgesLaunched.Add(1)
				launch(next, true)
				next++
				outstanding++
			}
		case <-ctx.Done():
			// Attempt contexts are children of ctx: in-flight attempts cancel
			// with it and drain into the buffered channel.
			return nil, ctx.Err()
		}
	}
}

// load reports total in-flight requests and total healthy capacity
// (healthy backends x per-backend concurrency).
func (r *Router) load() (inflight int64, capacity int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, bs := range r.backends {
		if bs.healthy.Load() {
			capacity += int64(r.opt.backendConcurrency)
			inflight += bs.inflight.Load()
		}
	}
	return inflight, capacity
}

// healthLoop drives periodic probes until Close.
func (r *Router) healthLoop() {
	defer close(r.healthDone)
	t := time.NewTicker(r.opt.checkInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopHealth:
			return
		case <-t.C:
			r.CheckNow()
		}
	}
}

// CheckNow probes every backend once, applying the ejection and
// re-admission thresholds. The background checker calls it periodically;
// tests and ops endpoints can call it directly.
func (r *Router) CheckNow() {
	r.mu.RLock()
	states := make([]*backendState, 0, len(r.backends))
	for _, bs := range r.backends {
		states = append(states, bs)
	}
	r.mu.RUnlock()
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	for _, bs := range states {
		ctx, cancel := context.WithTimeout(context.Background(), r.opt.checkTimeout)
		err := bs.b.Check(ctx)
		cancel()
		if err != nil {
			bs.consecOK = 0
			bs.consecFail++
			if bs.healthy.Load() && bs.consecFail >= r.opt.ejectAfter {
				bs.healthy.Store(false)
				bs.ejections.Add(1)
			}
			continue
		}
		bs.consecFail = 0
		bs.consecOK++
		if !bs.healthy.Load() && bs.consecOK >= r.opt.readmitAfter {
			bs.healthy.Store(true)
		}
	}
}

// Healthy reports whether a registered backend is currently in placement.
func (r *Router) Healthy(name string) bool {
	r.mu.RLock()
	bs := r.backends[name]
	r.mu.RUnlock()
	return bs != nil && bs.healthy.Load()
}

// Close stops the health checker and rejects further Infer calls. Backends
// are not owned by the router and stay running. Close is idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	if r.stopHealth != nil {
		close(r.stopHealth)
		<-r.healthDone
	}
	return nil
}
