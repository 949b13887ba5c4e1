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
	"cimflow/internal/model"
	"cimflow/internal/serve"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// fakeBackend is a scriptable replica: configurable per-call latency,
// health and inference errors, with counters for placement assertions.
type fakeBackend struct {
	name   string
	served []string
	shape  model.Shape

	mu       sync.Mutex
	delay    time.Duration
	checkErr error
	inferErr error

	infers    atomic.Int64
	cancelled atomic.Int64 // attempts that died to context cancellation
}

func newFake(name string, models ...string) *fakeBackend {
	if len(models) == 0 {
		models = []string{"m"}
	}
	return &fakeBackend{name: name, served: models, shape: model.Shape{H: 1, W: 1, C: 4}}
}

func (f *fakeBackend) set(mut func(*fakeBackend)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(f)
}

func (f *fakeBackend) Name() string     { return f.name }
func (f *fakeBackend) Models() []string { return f.served }

func (f *fakeBackend) InputShape(string) (model.Shape, error) { return f.shape, nil }

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

func (f *fakeBackend) Check(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checkErr
}

// testRouter builds a router with the background checker disabled (tests
// drive CheckNow directly) and a generous hedge budget unless overridden.
func testRouter(t *testing.T, opts ...Option) *Router {
	t.Helper()
	r := New(append([]Option{WithCheckInterval(0), WithHedgeBudget(1)}, opts...)...)
	t.Cleanup(func() { r.Close() })
	return r
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
	r := testRouter(t)
	names := []string{"replica-a", "replica-b", "replica-c", "replica-d"}
	for _, n := range names {
		if err := r.AddBackend(newFake(n)); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 200
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("model-%d", i)
		before[key] = r.placement(key)[0].b.Name()
	}
	if err := r.RemoveBackend("replica-c"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key, owner := range before {
		now := r.placement(key)[0].b.Name()
		if owner == "replica-c" {
			continue // had to move
		}
		if now != owner {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed backend changed owner (consistent hashing must only remap the removed member's keys)", moved)
	}
}

func TestEjectionAndReadmission(t *testing.T) {
	r := testRouter(t, WithEjectAfter(2), WithReadmitAfter(2))
	a, b := newFake("replica-a"), newFake("replica-b")
	for _, bk := range []*fakeBackend{a, b} {
		if err := r.AddBackend(bk); err != nil {
			t.Fatal(err)
		}
	}
	mdl := primaryModel(t, r, "replica-a")
	ctx := context.Background()

	// Healthy: the hash owner serves.
	if _, err := r.Infer(ctx, "", mdl, input4()); err != nil {
		t.Fatal(err)
	}
	if a.infers.Load() != 1 || b.infers.Load() != 0 {
		t.Fatalf("expected primary replica-a to serve: a=%d b=%d", a.infers.Load(), b.infers.Load())
	}

	// Flap: one failed check is not enough to eject...
	a.set(func(f *fakeBackend) { f.checkErr = errors.New("boom") })
	r.CheckNow()
	if !r.Healthy("replica-a") {
		t.Fatal("one failed check must not eject (eject-after=2)")
	}
	// ...the second is.
	r.CheckNow()
	if r.Healthy("replica-a") {
		t.Fatal("two consecutive failed checks must eject")
	}
	if _, err := r.Infer(ctx, "", mdl, input4()); err != nil {
		t.Fatal(err)
	}
	if b.infers.Load() != 1 {
		t.Fatalf("ejected primary: replica-b must serve, b=%d", b.infers.Load())
	}

	// Recovery: one good check is not enough to re-admit...
	a.set(func(f *fakeBackend) { f.checkErr = nil })
	r.CheckNow()
	if r.Healthy("replica-a") {
		t.Fatal("one good check must not re-admit (readmit-after=2)")
	}
	r.CheckNow()
	if !r.Healthy("replica-a") {
		t.Fatal("two consecutive good checks must re-admit")
	}
	// Re-admitted: exact old placement restored.
	if _, err := r.Infer(ctx, "", mdl, input4()); err != nil {
		t.Fatal(err)
	}
	if a.infers.Load() != 2 {
		t.Fatalf("re-admitted primary must serve again: a=%d", a.infers.Load())
	}
	m := r.Metrics()
	if m.Backends["replica-a"].Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", m.Backends["replica-a"].Ejections)
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	r := testRouter(t, WithHedgeDelay(5*time.Millisecond))
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
	r := testRouter(t, WithHedgeDelay(time.Millisecond), WithHedgeBudget(0))
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

func TestBatchPriorityNeverHedges(t *testing.T) {
	r := testRouter(t, WithHedgeDelay(time.Millisecond),
		WithTenant(TenantConfig{Name: "bulk", Priority: PriorityBatch}))
	a, b := newFake("replica-a"), newFake("replica-b")
	for _, bk := range []*fakeBackend{a, b} {
		if err := r.AddBackend(bk); err != nil {
			t.Fatal(err)
		}
	}
	mdl := primaryModel(t, r, "replica-a")
	a.set(func(f *fakeBackend) { f.delay = 20 * time.Millisecond })
	if _, err := r.Infer(context.Background(), "bulk", mdl, input4()); err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.HedgesLaunched != 0 {
		t.Fatalf("batch traffic hedged: %d", m.HedgesLaunched)
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

func TestQuotaTokenBucket(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	r := testRouter(t, withClock(now),
		WithTenant(TenantConfig{Name: "metered", Rate: 10, Burst: 2}))
	if err := r.AddBackend(newFake("replica-a")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := r.Infer(ctx, "metered", "m", input4()); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	if _, err := r.Infer(ctx, "metered", "m", input4()); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	// 100ms at 10 req/s refills exactly one token.
	clock = clock.Add(100 * time.Millisecond)
	if _, err := r.Infer(ctx, "metered", "m", input4()); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if _, err := r.Infer(ctx, "metered", "m", input4()); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded again", err)
	}
	tm := r.Metrics().Tenants["metered"]
	if tm.RejectedQuota != 2 || tm.Completed != 3 {
		t.Fatalf("tenant metrics = %+v, want 2 quota rejections, 3 completed", tm)
	}
	// The unmetered anonymous tenant is unaffected.
	if _, err := r.Infer(ctx, "", "m", input4()); err != nil {
		t.Fatalf("anonymous tenant: %v", err)
	}
}

func TestPrioritySheddingUnderLoad(t *testing.T) {
	r := testRouter(t, WithBackendConcurrency(1), WithPriorityShedThreshold(0.5),
		WithHedgeDelay(0),
		WithTenant(TenantConfig{Name: "bulk", Priority: PriorityBatch}),
		WithTenant(TenantConfig{Name: "gold", Priority: PriorityInteractive}))
	a := newFake("replica-a")
	a.set(func(f *fakeBackend) { f.delay = 100 * time.Millisecond })
	if err := r.AddBackend(a); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Saturate the fleet with one slow in-flight request.
	done := make(chan error, 1)
	go func() {
		_, err := r.Infer(ctx, "gold", "m", input4())
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for r.Metrics().Backends["replica-a"].Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never landed")
		}
		time.Sleep(time.Millisecond)
	}

	// Batch traffic is shed at the door; interactive traffic still queues.
	if _, err := r.Infer(ctx, "bulk", "m", input4()); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("batch err = %v, want ErrOverloaded", err)
	}
	if _, err := r.Infer(ctx, "gold", "m", input4()); err != nil {
		t.Fatalf("interactive under load: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tm := r.Metrics().Tenants["bulk"]
	if tm.RejectedPriority != 1 {
		t.Fatalf("bulk rejected_priority = %d, want 1", tm.RejectedPriority)
	}
}

func TestLeastLoadedFallback(t *testing.T) {
	r := testRouter(t, WithBackendConcurrency(1), WithHedgeDelay(0))
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
	r := testRouter(t, WithEjectAfter(1))
	if _, err := r.Infer(context.Background(), "", "m", input4()); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("empty router err = %v, want ErrNoBackends", err)
	}
	a := newFake("replica-a")
	if err := r.AddBackend(a); err != nil {
		t.Fatal(err)
	}
	a.set(func(f *fakeBackend) { f.checkErr = errors.New("down") })
	r.CheckNow()
	if _, err := r.Infer(context.Background(), "", "m", input4()); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("all-ejected err = %v, want ErrNoBackends", err)
	}
}

func TestInferAfterClose(t *testing.T) {
	r := New(WithCheckInterval(0))
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

// TestCloseLeavesNoGoroutines: Close while hedged requests are in flight and
// the health checker is running lets every request finish and leaves no
// goroutine behind — not the checker, not an attempt, not a hedge timer.
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
	r := New(WithCheckInterval(time.Millisecond), WithHedgeBudget(1), WithHedgeDelay(time.Millisecond))
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

func TestDeadlineExpiryRecorded(t *testing.T) {
	r := testRouter(t, WithHedgeDelay(0))
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
	if tm := r.Metrics().Tenants[""]; tm.Expired != 1 {
		t.Fatalf("expired = %d, want 1", tm.Expired)
	}
}

func TestBackgroundHealthLoopEjectsFlappingBackend(t *testing.T) {
	r := New(WithCheckInterval(2*time.Millisecond), WithEjectAfter(2), WithReadmitAfter(2))
	defer r.Close()
	a := newFake("replica-a")
	if err := r.AddBackend(a); err != nil {
		t.Fatal(err)
	}
	a.set(func(f *fakeBackend) { f.checkErr = errors.New("flap") })
	deadline := time.Now().Add(2 * time.Second)
	for r.Healthy("replica-a") {
		if time.Now().After(deadline) {
			t.Fatal("background checker never ejected the failing backend")
		}
		time.Sleep(time.Millisecond)
	}
	a.set(func(f *fakeBackend) { f.checkErr = nil })
	for !r.Healthy("replica-a") {
		if time.Now().After(deadline) {
			t.Fatal("background checker never re-admitted the recovered backend")
		}
		time.Sleep(time.Millisecond)
	}
}
