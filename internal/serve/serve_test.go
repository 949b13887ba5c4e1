package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/model"
	"cimflow/internal/serve"
	"cimflow/internal/tensor"
)

// newSession compiles a zoo model and stages it for serving tests.
func newSession(t *testing.T, g *model.Graph, seed uint64, pool int) *core.Session {
	t.Helper()
	cfg := arch.DefaultConfig()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(compiled, model.NewSeededWeights(g, seed), core.Options{MaxPooledChips: pool})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seededInput builds a deterministic input of the session's shape.
func seededInput(s *core.Session, seed uint64) tensor.Tensor {
	return model.SeededInput(s.InputShape(), seed)
}

func int8Bytes(t tensor.Tensor) []byte {
	out := make([]byte, len(t.Data))
	for i, v := range t.Data {
		out[i] = byte(v)
	}
	return out
}

// TestServeEquivalence is the batching-equivalence acceptance test: served
// outputs must be byte-identical to direct Session.Infer for the same
// seeded inputs, at every batch size and worker count.
func TestServeEquivalence(t *testing.T) {
	g := model.TinyMLP()
	sess := newSession(t, g, 11, 4)
	defer sess.Close()
	ctx := context.Background()

	const n = 10
	shape := sess.InputShape()
	inputs := make([]tensor.Tensor, n)
	refs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = model.SeededInput(shape, uint64(100+i))
		res, err := sess.Infer(ctx, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = int8Bytes(res.Output)
	}

	for _, maxBatch := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("batch%d_workers%d", maxBatch, workers), func(t *testing.T) {
				srv := serve.NewServer(workers)
				if err := srv.AddModel("m", sess, serve.ModelConfig{
					MaxBatch:   maxBatch,
					QueueDepth: 2 * n,
				}); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make([]error, n)
				outs := make([][]byte, n)
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, err := srv.Infer(ctx, "m", inputs[i])
						if err != nil {
							errs[i] = err
							return
						}
						outs[i] = int8Bytes(res.Output)
					}(i)
				}
				wg.Wait()
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if errs[i] != nil {
						t.Fatalf("request %d: %v", i, errs[i])
					}
					if !bytes.Equal(outs[i], refs[i]) {
						t.Errorf("request %d: served output differs from direct Session.Infer", i)
					}
				}
			})
		}
	}
}

// slowNet is a synthetic workload that keeps the worker running it busy for
// about 3.5 ms per convolution (some 50 ms under the race detector), so a
// test can act on a server state that holds for as long as the run lasts.
func slowNet(convs int) *model.Graph {
	g, x := model.NewGraph("slownet", model.Shape{H: 64, W: 64, C: 32})
	for i := 0; i < convs; i++ {
		x = g.Conv(fmt.Sprintf("c%d", i), x, 64, 3, 1, 1, true)
	}
	g.Dense("fc", g.Flatten("fl", g.GlobalAvgPool("gap", x)), 10, false)
	return g
}

// waitFor polls a metrics predicate; serving state transitions (batch
// formed, queue drained) are observable but asynchronous.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitHeld waits until a model's batcher holds every one of its n admitted
// requests in the batch it is offering: n accepted, none left in the queue.
func waitHeld(t *testing.T, srv *serve.Server, name string, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d %s requests in the waiting batch", n, name), func() bool {
		m := srv.Metrics().Models[name]
		return m.Accepted == int64(n) && m.QueueDepth == 0
	})
}

// parkWorker occupies one dispatch worker of srv until the returned release
// is called: it serves a slowNet that runs for hundreds of milliseconds as
// "blocker", submits one request and waits for its dispatch. To the
// batchers a parked worker is a busy pool, so what they do at a blocked gate
// can be staged through metrics, event by event, in a few milliseconds.
// release abandons the request, which cancels the run mid-simulation.
func parkWorker(t *testing.T, srv *serve.Server) (release func()) {
	t.Helper()
	sess := newSession(t, slowNet(100), 1, 1)
	t.Cleanup(func() { sess.Close() })
	if err := srv.AddModel("blocker", sess, serve.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := srv.Infer(ctx, "blocker", seededInput(sess, 0))
		abandoned <- err
	}()
	waitFor(t, "blocker dispatch", func() bool { return srv.Metrics().Models["blocker"].Batches == 1 })
	return func() {
		cancel()
		if err := <-abandoned; !errors.Is(err, context.Canceled) {
			t.Errorf("blocker returned %v before its release: the worker was not parked throughout", err)
		}
	}
}

// submit sends n seeded requests to a model, each from its own goroutine;
// wait blocks until all have returned and reports their errors by index.
// The timeout only turns a request that is never answered into a failure.
func submit(srv *serve.Server, name string, sess *core.Session, n int) (wait func() []error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.Infer(ctx, name, seededInput(sess, uint64(i)))
		}(i)
	}
	return func() []error {
		wg.Wait()
		cancel()
		return errs
	}
}

// expectServed fails the test for every request of a submit that errored.
func expectServed(t *testing.T, what string, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s request %d: %v", what, i, err)
		}
	}
}

// stagedServer is the fixture of the gate tests: one worker, parked, and
// tinymlp served as "m" with the given batch and queue bounds.
func stagedServer(t *testing.T, maxBatch, queueDepth int) (srv *serve.Server, sess *core.Session, mm func() serve.ModelMetrics, release func()) {
	t.Helper()
	sess = newSession(t, model.TinyMLP(), 1, 1)
	t.Cleanup(func() { sess.Close() })
	srv = serve.NewServer(1)
	if err := srv.AddModel("m", sess, serve.ModelConfig{MaxBatch: maxBatch, QueueDepth: queueDepth}); err != nil {
		t.Fatal(err)
	}
	mm = func() serve.ModelMetrics { return srv.Metrics().Models["m"] }
	return srv, sess, mm, parkWorker(t, srv)
}

// TestDynamicBatchingCoalesces: eight requests that arrive while the only
// worker is busy are served as one batch of eight when it frees.
func TestDynamicBatchingCoalesces(t *testing.T) {
	srv, sess, mm, release := stagedServer(t, 8, 16)
	wait := submit(srv, "m", sess, 8)
	waitHeld(t, srv, "m", 8)
	release()
	expectServed(t, "coalesced", wait())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	m := mm()
	if m.Batches != 1 || m.BatchHist[8] != 1 {
		t.Errorf("batches=%d hist=%v, want one batch of 8", m.Batches, m.BatchHist)
	}
	if m.Completed != 8 {
		t.Errorf("completed=%d, want 8", m.Completed)
	}
	if m.LatencySamples != 8 || m.P99Ms < m.P50Ms {
		t.Errorf("latency snapshot inconsistent: %+v", m)
	}
	// Every request waited for the worker, so nearly all of its latency is
	// queue wait.
	if m.QueueWaitP50Ms <= 0 || m.QueueWaitP50Ms > m.P50Ms {
		t.Errorf("queue wait p50 %.3f ms outside (0, latency p50 %.3f ms]", m.QueueWaitP50Ms, m.P50Ms)
	}
}

// TestAdmissionShedding drives the queue into a provably full state and
// asserts the bounded queue sheds with the typed ErrOverloaded while every
// accepted request is still served.
//
// With the one worker parked and MaxBatch = QueueDepth = 8: the first 8
// requests form a full batch that blocks at the dispatch gate; 8 more fill
// the admission queue (nothing consumes them: a full batch takes no more);
// the 17th must shed. Each burst matches the queue depth, so no fill phase
// can overflow even when the batcher drains slowly (e.g. under the race
// detector).
func TestAdmissionShedding(t *testing.T) {
	srv, sess, mm, release := stagedServer(t, 8, 8)
	waitBatch := submit(srv, "m", sess, 8)
	waitHeld(t, srv, "m", 8) // a full batch, blocked at the gate
	waitQueue := submit(srv, "m", sess, 8)
	waitFor(t, "queue full", func() bool { return mm().QueueDepth == 8 })
	if _, err := srv.Infer(context.Background(), "m", seededInput(sess, 99)); !errors.Is(err, serve.ErrOverloaded) {
		t.Errorf("overflow request: %v, want ErrOverloaded", err)
	}
	release()
	expectServed(t, "batched", waitBatch())
	expectServed(t, "queued", waitQueue())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	m := mm()
	if m.Accepted != 16 || m.Shed != 1 || m.Completed != 16 {
		t.Errorf("accepted=%d shed=%d completed=%d, want 16, 1, 16", m.Accepted, m.Shed, m.Completed)
	}
}

// TestDeadlineExpiresInQueue: a request whose context deadline passes while
// its batch waits behind a busy worker is shed at dispatch time with its
// context error; the live request in the same batch still completes.
func TestDeadlineExpiresInQueue(t *testing.T) {
	srv, sess, mm, release := stagedServer(t, 3, 8)
	waitA := submit(srv, "m", sess, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// Infer returns as soon as B's deadline passes; B itself stays in the
	// waiting batch until the worker takes it.
	_, errB := srv.Infer(ctx, "m", seededInput(sess, 2))
	if !errors.Is(errB, context.DeadlineExceeded) {
		t.Errorf("request B: %v, want context.DeadlineExceeded", errB)
	}
	waitHeld(t, srv, "m", 2)
	release()
	expectServed(t, "A", waitA())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if m := mm(); m.Expired != 1 || m.Completed != 1 || m.BatchHist[1] != 1 {
		t.Errorf("expired=%d completed=%d hist=%v, want B expired and A served as a batch of 1", m.Expired, m.Completed, m.BatchHist)
	}
}

// TestIdleWorkerDispatchesAlone: on an idle server a lone request does not
// wait for company. Nothing else is ever sent, so a batcher that held the
// request back to fill its batch of 8 would never answer.
func TestIdleWorkerDispatchesAlone(t *testing.T) {
	sess := newSession(t, model.TinyMLP(), 1, 1)
	defer sess.Close()
	srv := serve.NewServer(1)
	defer srv.Close()
	if err := srv.AddModel("m", sess, serve.ModelConfig{MaxBatch: 8}); err != nil {
		t.Fatal(err)
	}
	expectServed(t, "lone", submit(srv, "m", sess, 1)())
	m := srv.Metrics().Models["m"]
	if m.Batches != 1 || m.BatchHist[1] != 1 || m.Completed != 1 {
		t.Errorf("batches=%d hist=%v completed=%d, want one batch of 1", m.Batches, m.BatchHist, m.Completed)
	}
}

// TestBatchGrowsWhileGateBlocked: a batch that finds every worker busy
// keeps filling while it waits, one request at a time, up to MaxBatch and
// no further.
func TestBatchGrowsWhileGateBlocked(t *testing.T) {
	const maxBatch = 4
	srv, sess, mm, release := stagedServer(t, maxBatch, 8)
	var waits []func() []error
	for i := 1; i <= maxBatch; i++ {
		waits = append(waits, submit(srv, "m", sess, 1))
		waitHeld(t, srv, "m", i)
	}
	// The batch is full: one more stays in the queue.
	waits = append(waits, submit(srv, "m", sess, 1))
	waitFor(t, "request 5 admitted", func() bool { return mm().Accepted == maxBatch+1 })
	if d := mm().QueueDepth; d != 1 {
		t.Errorf("queue depth %d behind a full batch, want 1", d)
	}
	release()
	for _, wait := range waits {
		expectServed(t, "trickled", wait())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if m := mm(); m.Batches != 2 || m.BatchHist[maxBatch] != 1 || m.BatchHist[1] != 1 {
		t.Errorf("batches=%d hist=%v, want a batch of %d then a batch of 1", m.Batches, m.BatchHist, maxBatch)
	}
}

// TestGateFairness: one worker, a hot model whose six closed-loop clients
// keep it under continuous arrivals, and a cold model with a single request.
// The cold request is dispatched after at most one hot batch, and the hot
// model completes everything: neither starves.
func TestGateFairness(t *testing.T) {
	const clients, perClient, maxBatch = 6, 5, 4
	srv, hot, mm, release := stagedServer(t, maxBatch, 16)
	// The cold model runs for some 80 ms, so once its batch is dispatched the
	// one worker stays on it while the hot count is read.
	cold := newSession(t, slowNet(24), 2, 1)
	defer cold.Close()
	if err := srv.AddModel("cold", cold, serve.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	hotErrs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient && hotErrs[c] == nil; i++ {
				_, hotErrs[c] = srv.Infer(context.Background(), "m", seededInput(hot, uint64(c*perClient+i)))
			}
		}(c)
	}
	// A full hot batch holds the gate with two more requests queued behind
	// it before the cold request arrives.
	waitFor(t, "hot batch full", func() bool {
		m := mm()
		return m.Accepted == clients && m.QueueDepth == clients-maxBatch
	})
	waitCold := submit(srv, "cold", cold, 1)
	waitHeld(t, srv, "cold", 1)
	release()
	waitFor(t, "cold dispatch", func() bool { return srv.Metrics().Models["cold"].Batches == 1 })
	if m := mm(); m.Batches > 1 {
		t.Errorf("%d hot batches (hist %v) dispatched ahead of the cold request, want at most 1", m.Batches, m.BatchHist)
	}
	expectServed(t, "cold", waitCold())
	wg.Wait()
	expectServed(t, "hot client", hotErrs)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if m := mm(); m.Completed != clients*perClient {
		t.Errorf("hot completed=%d, want %d", m.Completed, clients*perClient)
	}
}

// TestCloseDrainsFormingBatch: Close while a partial batch is being offered
// to a busy pool still serves every admitted request, and leaves no
// goroutine behind.
func TestCloseDrainsFormingBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, sess, mm, release := stagedServer(t, 8, 8)
	wait := submit(srv, "m", sess, 3)
	waitHeld(t, srv, "m", 3)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Closed reports true once Close has closed every queue: the batcher is
	// left holding three requests and a closed queue, the worker still busy.
	waitFor(t, "admission closed", srv.Closed)
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	expectServed(t, "admitted", wait())
	if m := mm(); m.Completed != 3 || m.BatchHist[3] != 1 {
		t.Errorf("completed=%d hist=%v, want the 3 admitted requests served as one batch", m.Completed, m.BatchHist)
	}
	// Batchers and workers have exited when Close returns; a dispatch's
	// cancellation watcher may take a moment longer.
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestFairnessAcrossModels: one worker, two hot models — the batch-level
// round-robin at the dispatch gate must interleave them rather than serve
// one model to completion first. The worker is parked until both models
// hold a full batch at the gate with the rest of their requests queued, so
// the interleaving is the gate's doing and not the order in which the
// client goroutines happened to run.
func TestFairnessAcrossModels(t *testing.T) {
	sessA := newSession(t, model.TinyMLP(), 1, 1)
	defer sessA.Close()
	sessB := newSession(t, model.TinyCNN(), 2, 1)
	defer sessB.Close()
	srv := serve.NewServer(1)
	const perModel, maxBatch = 6, 2
	cfg := serve.ModelConfig{MaxBatch: maxBatch, QueueDepth: 16}
	if err := srv.AddModel("a", sessA, cfg); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddModel("b", sessB, cfg); err != nil {
		t.Fatal(err)
	}
	release := parkWorker(t, srv)
	ctx := context.Background()
	type doneAt struct {
		model string
		at    time.Time
	}
	times := make(chan doneAt, 2*perModel)
	var wg sync.WaitGroup
	for _, m := range []struct {
		name string
		sess *core.Session
	}{{"a", sessA}, {"b", sessB}} {
		for i := 0; i < perModel; i++ {
			wg.Add(1)
			go func(name string, sess *core.Session, i int) {
				defer wg.Done()
				if _, err := srv.Infer(ctx, name, seededInput(sess, uint64(i))); err != nil {
					t.Errorf("%s/%d: %v", name, i, err)
					return
				}
				times <- doneAt{name, time.Now()}
			}(m.name, m.sess, i)
		}
	}
	for _, name := range []string{"a", "b"} {
		waitFor(t, name+" batch held with the rest queued", func() bool {
			m := srv.Metrics().Models[name]
			return m.Accepted == perModel && m.QueueDepth == perModel-maxBatch
		})
	}
	release()
	wg.Wait()
	close(times)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	first := map[string]time.Time{}
	last := map[string]time.Time{}
	for d := range times {
		if first[d.model].IsZero() || d.at.Before(first[d.model]) {
			first[d.model] = d.at
		}
		if d.at.After(last[d.model]) {
			last[d.model] = d.at
		}
	}
	if len(first) != 2 {
		t.Fatalf("completions for %d models, want 2", len(first))
	}
	if !first["a"].Before(last["b"]) || !first["b"].Before(last["a"]) {
		t.Errorf("one model was starved: a=[%v..%v] b=[%v..%v]",
			first["a"], last["a"], first["b"], last["b"])
	}
}

// TestGracefulDrain: Close stops admission but serves every already-queued
// request before returning.
func TestGracefulDrain(t *testing.T) {
	g := model.TinyMLP()
	sess := newSession(t, g, 1, 1)
	defer sess.Close()
	srv := serve.NewServer(1)
	if err := srv.AddModel("m", sess, serve.ModelConfig{
		MaxBatch:   2,
		QueueDepth: 16,
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.Infer(ctx, "m", seededInput(sess, uint64(i)))
		}(i)
	}
	// Close only after all n requests were admitted, so none race admission.
	for srv.Metrics().Models["m"].Accepted < n {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d failed during drain: %v", i, err)
		}
	}
	mm := srv.Metrics().Models["m"]
	if mm.Completed != n {
		t.Errorf("completed=%d after drain, want %d", mm.Completed, n)
	}
	if _, err := srv.Infer(ctx, "m", seededInput(sess, 0)); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("Infer after Close = %v, want ErrClosed", err)
	}
	if err := srv.AddModel("late", sess, serve.ModelConfig{}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("AddModel after Close = %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestAdmissionRejections: unknown models, mis-shaped inputs and expired
// contexts are rejected synchronously with diagnosable errors.
func TestAdmissionRejections(t *testing.T) {
	g := model.TinyMLP()
	sess := newSession(t, g, 1, 1)
	defer sess.Close()
	srv := serve.NewServer(1)
	defer srv.Close()
	if err := srv.AddModel("m", sess, serve.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := srv.Infer(ctx, "nope", seededInput(sess, 1)); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("unknown model: %v, want ErrUnknownModel", err)
	}
	if _, err := srv.Infer(ctx, "m", tensor.New(1, 1, 1)); err == nil {
		t.Error("mis-shaped input was admitted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := srv.Infer(cancelled, "m", seededInput(sess, 1)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: %v, want context.Canceled", err)
	}
	if got := srv.Models(); len(got) != 1 || got[0] != "m" {
		t.Errorf("Models() = %v, want [m]", got)
	}
}
