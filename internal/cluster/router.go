package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cimflow/internal/core"
	"cimflow/internal/tensor"
)

// The router's settings.
const (
	// vnodes is how many points each backend owns on the consistent-hash
	// ring.
	vnodes = 64
	// hedgeDelay is how long the router waits on the first attempt before
	// launching a budgeted hedge on the next preferred backend.
	hedgeDelay = 25 * time.Millisecond
	// hedgeBudget is the hedge tokens each admitted request earns.
	hedgeBudget = 0.1
	// hedgeBurst caps the hedge tokens saved up.
	hedgeBurst = 16
	// backendConcurrency is the in-flight count at which a hash owner is
	// saturated and placement falls back to the least-loaded replica.
	backendConcurrency = 64
)

// tuning is what the constants above set and tests substitute.
type tuning struct {
	hedgeDelay         time.Duration // 0 disables hedging
	hedgeBudget        float64
	backendConcurrency int64
}

// backendState is one registered replica: the backend plus the router-side
// load and placement accounting.
type backendState struct {
	b          Backend
	inflight   atomic.Int64
	placements atomic.Int64
}

// Router places every request on an open replica and hedges slow or shed
// attempts. A Router is safe for concurrent use.
type Router struct {
	tuning

	mu       sync.RWMutex
	backends map[string]*backendState
	ring     *ring
	closed   bool

	hedge *bucket
	m     routerCounters
}

// routerCounters are the router-level atomic counters.
type routerCounters struct {
	hedgesLaunched atomic.Int64
	hedgesWon      atomic.Int64
	retries        atomic.Int64
	fallbacks      atomic.Int64
}

// New builds a router. Backends are registered with AddBackend.
func New() *Router {
	return newRouter(tuning{hedgeDelay: hedgeDelay, hedgeBudget: hedgeBudget, backendConcurrency: backendConcurrency})
}

func newRouter(t tuning) *Router {
	return &Router{
		tuning:   t,
		backends: make(map[string]*backendState),
		ring:     buildRing(nil, vnodes),
		// The hedge budget starts empty: hedges are an earned fraction of
		// admitted traffic, not a free initial burst.
		hedge: &bucket{burst: hedgeBurst},
	}
}

// AddBackend registers a replica and rebuilds the ring.
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
	r.backends[name] = &backendState{b: b}
	members := make([]string, 0, len(r.backends))
	for name := range r.backends {
		members = append(members, name)
	}
	sort.Strings(members)
	r.ring = buildRing(members, vnodes)
	return nil
}

// placement returns the model's open backends in dispatch-preference
// order: the consistent-hash owner first (so warm chips stay sticky),
// successors after it for hedges and failover — unless the owner is
// saturated, in which case the least-loaded replica moves to the front
// (hot models spread).
func (r *Router) placement(model string) []*backendState {
	r.mu.RLock()
	prefs := r.ring.preference(model)
	states := make([]*backendState, 0, len(prefs))
	for _, name := range prefs {
		if bs := r.backends[name]; bs != nil && !bs.b.Closed() {
			states = append(states, bs)
		}
	}
	r.mu.RUnlock()
	if len(states) == 0 {
		return nil
	}
	if states[0].inflight.Load() >= r.backendConcurrency {
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
	hedged bool
}

// Infer routes one request: consistent-hash placement with hedged
// retries. The tenant is ignored; the argument stays for the benchmark's
// serve_tiny caller. The returned output is byte-identical to a direct
// Session.Infer on any replica — replicas are deterministic, so hedging
// never changes results, only latency.
func (r *Router) Infer(ctx context.Context, tenant, model string, input tensor.Tensor) (*core.Result, error) {
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrRouterClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Every admitted request funds the hedge budget.
	r.hedge.credit(r.hedgeBudget)
	prefs := r.placement(model)
	if len(prefs) == 0 {
		return nil, fmt.Errorf("%w for model %q", ErrNoBackends, model)
	}
	return r.dispatch(ctx, prefs, model, input)
}

// dispatch runs the attempt loop over the preference list: the primary
// first, a budgeted hedge on the next replica once hedgeDelay passes
// without a reply, and budgeted immediate failover when an attempt sheds
// or the replica is closing. The first success wins and cancels every
// losing attempt.
func (r *Router) dispatch(ctx context.Context, prefs []*backendState, model string, input tensor.Tensor) (*core.Result, error) {
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
		go func() {
			res, err := bs.b.Infer(actx, model, input)
			bs.inflight.Add(-1)
			resCh <- attemptOutcome{res: res, err: err, hedged: hedged}
		}()
	}
	launch(0, false)
	next, outstanding := 1, 1

	var hedgeC <-chan time.Time
	if r.hedgeDelay > 0 && next < len(prefs) {
		timer := time.NewTimer(r.hedgeDelay)
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
			if retryable(out.err) && next < len(prefs) && r.hedge.take(1) {
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
			if next < len(prefs) && r.hedge.take(1) {
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

// Close rejects further Infer calls. Backends are not owned by the router
// and stay running. Close is idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return nil
}
