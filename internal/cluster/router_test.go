package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimflow/internal/core"
	"cimflow/internal/serve"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// fakeBackend is a scriptable replica: configurable per-call latency,
// inference errors and closing, with counters for placement assertions.
type fakeBackend struct {
	name string

	mu       sync.Mutex
	delay    time.Duration
	closed   bool
	inferErr error

	infers    atomic.Int64
	cancelled atomic.Int64 // attempts that died to context cancellation
}

func newFake(name string) *fakeBackend { return &fakeBackend{name: name} }

func (f *fakeBackend) set(mut func(*fakeBackend)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(f)
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Infer(ctx context.Context, name string, input tensor.Tensor) (*core.Result, error) {
	f.infers.Add(1)
	f.mu.Lock()
	delay, inferErr := f.delay, f.inferErr
	f.mu.Unlock()
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			f.cancelled.Add(1)
			return nil, ctx.Err()
		}
	}
	if inferErr != nil {
		return nil, inferErr
	}
	// Deterministic echo: every replica computes the same output for the
	// same input, like real deterministic replicas do.
	out := tensor.Tensor{H: input.H, W: input.W, C: input.C, Data: append([]int8(nil), input.Data...)}
	return &core.Result{Output: out, Stats: &sim.Stats{Cycles: 1}}, nil
}

func (f *fakeBackend) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// testRouter builds a router with the default settings but a hedge budget
// of a whole token per request, then applies the given changes to them.
func testRouter(t *testing.T, changes ...func(*tuning)) *Router {
	t.Helper()
	tn := tuning{hedgeDelay: hedgeDelay, hedgeBudget: 1, backendConcurrency: backendConcurrency}
	for _, change := range changes {
		change(&tn)
	}
	r := newRouter(tn)
	t.Cleanup(func() { r.Close() })
	return r
}

// withHedgeDelay sets the hedge delay of a testRouter.
func withHedgeDelay(d time.Duration) func(*tuning) {
	return func(tn *tuning) { tn.hedgeDelay = d }
}

// primaryModel finds a model name whose consistent-hash owner is the named
// backend, so placement-sensitive tests don't depend on hash luck.
func primaryModel(t *testing.T, r *Router, backend string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("model-%d", i)
		prefs := r.placement(name)
		if len(prefs) > 0 && prefs[0].b.Name() == backend {
			return name
		}
	}
	t.Fatalf("no model hashing to backend %q in 1000 tries", backend)
	return ""
}

func input4() tensor.Tensor {
	return tensor.Tensor{H: 1, W: 1, C: 4, Data: []int8{1, 2, 3, 4}}
}

func TestPlacementDeterministic(t *testing.T) {
	names := []string{"replica-a", "replica-b", "replica-c", "replica-d"}
	build := func(order []string) *Router {
		r := testRouter(t)
		for _, n := range order {
			if err := r.AddBackend(newFake(n)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	r1 := build(names)
	r2 := build([]string{names[2], names[0], names[3], names[1]})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("model-%d", i)
		p1, p2 := r1.placement(key), r2.placement(key)
		if len(p1) != len(names) || len(p2) != len(names) {
			t.Fatalf("key %s: preference lengths %d, %d", key, len(p1), len(p2))
		}
		for j := range p1 {
			if p1[j].b.Name() != p2[j].b.Name() {
				t.Fatalf("key %s: placement diverges at %d: %s vs %s (insertion order must not matter)",
					key, j, p1[j].b.Name(), p2[j].b.Name())
			}
		}
	}
}

func TestPlacementMinimalDisruption(t *testing.T) {
	build := func(names ...string) *Router {
		r := testRouter(t)
		for _, n := range names {
			if err := r.AddBackend(newFake(n)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	all := build("replica-a", "replica-b", "replica-c", "replica-d")
	without := build("replica-a", "replica-b", "replica-d")
	moved := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("model-%d", i)
		owner := all.placement(key)[0].b.Name()
		if owner == "replica-c" {
			continue // had to move
		}
		if without.placement(key)[0].b.Name() != owner {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the missing backend changed owner (consistent hashing must only remap the missing member's keys)", moved)
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	r := testRouter(t, withHedgeDelay(5*time.Millisecond))
	a, b := newFake("replica-a"), newFake("replica-b")
	for _, bk := range []*fakeBackend{a, b} {
		if err := r.AddBackend(bk); err != nil {
			t.Fatal(err)
		}
	}
	mdl := primaryModel(t, r, "replica-a")
	a.set(func(f *fakeBackend) { f.delay = 2 * time.Second })

	res, err := r.Infer(context.Background(), "", mdl, input4())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Output.Data) != 4 {
		t.Fatalf("hedged result malformed: %+v", res)
	}
	m := r.Metrics()
	if m.HedgesLaunched != 1 || m.HedgesWon != 1 {
		t.Fatalf("hedges launched/won = %d/%d, want 1/1", m.HedgesLaunched, m.HedgesWon)
	}
	if b.infers.Load() != 1 {
		t.Fatalf("hedge must land on the successor replica: b=%d", b.infers.Load())
	}
	// The losing attempt is cancelled, not left running to completion.
	deadline := time.Now().Add(2 * time.Second)
	for a.cancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing attempt was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHedgeBudgetBounds(t *testing.T) {
	// Budget 0: no tokens ever accrue, so the slow primary is waited out.
	r := testRouter(t, withHedgeDelay(time.Millisecond), func(tn *tuning) { tn.hedgeBudget = 0 })
	a, b := newFake("replica-a"), newFake("replica-b")
	for _, bk := range []*fakeBackend{a, b} {
		if err := r.AddBackend(bk); err != nil {
			t.Fatal(err)
		}
	}
	mdl := primaryModel(t, r, "replica-a")
	a.set(func(f *fakeBackend) { f.delay = 20 * time.Millisecond })
	if _, err := r.Infer(context.Background(), "", mdl, input4()); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.HedgesLaunched != 0 {
		t.Fatalf("hedges launched with zero budget: %d", m.HedgesLaunched)
	}
	if b.infers.Load() != 0 {
		t.Fatalf("successor must not be touched without budget: b=%d", b.infers.Load())
	}
}

func TestRetryOnShed(t *testing.T) {
	r := testRouter(t)
	a, b := newFake("replica-a"), newFake("replica-b")
	for _, bk := range []*fakeBackend{a, b} {
		if err := r.AddBackend(bk); err != nil {
			t.Fatal(err)
		}
	}
	mdl := primaryModel(t, r, "replica-a")
	a.set(func(f *fakeBackend) { f.inferErr = serve.ErrOverloaded })

	res, err := r.Infer(context.Background(), "", mdl, input4())
	if err != nil {
		t.Fatalf("shed on primary must fail over: %v", err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	m := r.Metrics()
	if m.Retries != 1 {
		t.Fatalf("retries = %d, want 1", m.Retries)
	}
	if b.infers.Load() != 1 {
		t.Fatalf("retry must land on the successor: b=%d", b.infers.Load())
	}
}

func TestNonRetryableErrorFailsFast(t *testing.T) {
	r := testRouter(t)
	a, b := newFake("replica-a"), newFake("replica-b")
	for _, bk := range []*fakeBackend{a, b} {
		if err := r.AddBackend(bk); err != nil {
			t.Fatal(err)
		}
	}
	mdl := primaryModel(t, r, "replica-a")
	detErr := errors.New("simulation failed deterministically")
	a.set(func(f *fakeBackend) { f.inferErr = detErr })

	if _, err := r.Infer(context.Background(), "", mdl, input4()); !errors.Is(err, detErr) {
		t.Fatalf("err = %v, want the deterministic backend error", err)
	}
	if b.infers.Load() != 0 {
		t.Fatalf("deterministic failure must not retry: b=%d", b.infers.Load())
	}
	if m := r.Metrics(); m.Retries != 0 {
		t.Fatalf("retries = %d, want 0", m.Retries)
	}
}

func TestLeastLoadedFallback(t *testing.T) {
	r := testRouter(t, withHedgeDelay(0), func(tn *tuning) { tn.backendConcurrency = 1 })
	a, b := newFake("replica-a"), newFake("replica-b")
	for _, bk := range []*fakeBackend{a, b} {
		if err := r.AddBackend(bk); err != nil {
			t.Fatal(err)
		}
	}
	mdl := primaryModel(t, r, "replica-a")
	a.set(func(f *fakeBackend) { f.delay = 100 * time.Millisecond })

	// Saturate the hash owner.
	done := make(chan error, 1)
	go func() {
		_, err := r.Infer(context.Background(), "", mdl, input4())
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for r.Metrics().Backends["replica-a"].Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never landed")
		}
		time.Sleep(time.Millisecond)
	}

	// The next placement spills to the least-loaded replica.
	if _, err := r.Infer(context.Background(), "", mdl, input4()); err != nil {
		t.Fatal(err)
	}
	if b.infers.Load() != 1 {
		t.Fatalf("saturated owner must spill to replica-b: b=%d", b.infers.Load())
	}
	if m := r.Metrics(); m.Fallbacks == 0 {
		t.Fatal("fallback counter not incremented")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNoHealthyBackends(t *testing.T) {
	r := testRouter(t)
	if _, err := r.Infer(context.Background(), "", "m", input4()); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("empty router err = %v, want ErrNoBackends", err)
	}
	a := newFake("replica-a")
	if err := r.AddBackend(a); err != nil {
		t.Fatal(err)
	}
	a.set(func(f *fakeBackend) { f.closed = true })
	if _, err := r.Infer(context.Background(), "", "m", input4()); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("all-closed err = %v, want ErrNoBackends", err)
	}
	if a.infers.Load() != 0 {
		t.Fatalf("a closed backend was placed on: %d", a.infers.Load())
	}
}

func TestInferAfterClose(t *testing.T) {
	r := New()
	if err := r.AddBackend(newFake("replica-a")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Infer(context.Background(), "", "m", input4()); !errors.Is(err, ErrRouterClosed) {
		t.Fatalf("err = %v, want ErrRouterClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
}

// TestCloseLeavesNoGoroutines: Close while hedged requests are in flight
// lets every request finish and leaves no goroutine behind — not an
// attempt, not a hedge timer.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	waitFor := func(what string, pred func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !pred(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	before := runtime.NumGoroutine()
	r := newRouter(tuning{hedgeDelay: time.Millisecond, hedgeBudget: 1, backendConcurrency: backendConcurrency})
	for _, name := range []string{"replica-a", "replica-b"} {
		f := newFake(name)
		f.delay = 100 * time.Millisecond
		if err := r.AddBackend(f); err != nil {
			t.Fatal(err)
		}
	}
	const requests = 8
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		go func() {
			_, err := r.Infer(context.Background(), "", "m", input4())
			errs <- err
		}()
	}
	waitFor("every request to hedge", func() bool { return r.Metrics().HedgesLaunched == requests })
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requests; i++ {
		if err := <-errs; err != nil {
			t.Errorf("request in flight at Close: %v", err)
		}
	}
	waitFor("goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestDeadlineExpiryRecorded: the caller's deadline reaches the attempt,
// which the backend records as cancelled.
func TestDeadlineExpiryRecorded(t *testing.T) {
	r := testRouter(t, withHedgeDelay(0))
	a := newFake("replica-a")
	a.set(func(f *fakeBackend) { f.delay = time.Second })
	if err := r.AddBackend(a); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := r.Infer(ctx, "", "m", input4()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.cancelled.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the expired attempt was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
}
