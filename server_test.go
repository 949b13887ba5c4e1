package cimflow_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cimflow"
)

// TestSessionAndEngineClose: Close drains and releases pooled chips
// (PooledChips()==0), use-after-close fails with the typed
// ErrSessionClosed, a closed session is replaced on the next request, and
// Engine.Close sweeps every session and rejects new ones.
func TestSessionAndEngineClose(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig(), cimflow.WithMaxPooledChips(2))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.SessionFor("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Infer(ctx, sess.SeededInput(1)); err != nil {
		t.Fatal(err)
	}
	if sess.PooledChips() == 0 {
		t.Fatal("no chip pooled after Infer")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sess.PooledChips(); n != 0 {
		t.Errorf("PooledChips() = %d after Close, want 0", n)
	}
	if _, err := sess.Infer(ctx, sess.SeededInput(1)); !errors.Is(err, cimflow.ErrSessionClosed) {
		t.Errorf("Infer after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Validate(ctx, sess.SeededInput(1)); !errors.Is(err, cimflow.ErrSessionClosed) {
		t.Errorf("Validate after Close = %v, want ErrSessionClosed", err)
	}
	// The engine replaces the stale session instead of returning the
	// closed handle (no recompilation: the artifact cache still holds it).
	fresh, err := engine.SessionFor("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == sess {
		t.Fatal("engine returned the closed session")
	}
	if _, err := fresh.Infer(ctx, fresh.SeededInput(1)); err != nil {
		t.Fatalf("fresh session after close: %v", err)
	}
	if calls := engine.CompileCalls(); calls != 1 {
		t.Errorf("replacing a closed session recompiled: %d calls, want 1", calls)
	}

	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	if n := engine.PooledChips(); n != 0 {
		t.Errorf("engine PooledChips() = %d after Close, want 0", n)
	}
	if _, err := fresh.Infer(ctx, fresh.SeededInput(1)); !errors.Is(err, cimflow.ErrSessionClosed) {
		t.Errorf("session Infer after Engine.Close = %v, want ErrSessionClosed", err)
	}
	if _, err := engine.SessionFor("tinymlp"); !errors.Is(err, cimflow.ErrEngineClosed) {
		t.Errorf("SessionFor after Engine.Close = %v, want ErrEngineClosed", err)
	}
	if err := engine.Close(); err != nil {
		t.Errorf("second Engine.Close = %v, want nil", err)
	}
}

// TestServerFacade exercises the public serving API end to end: functional
// options, concurrent requests, byte-identical outputs, metrics with
// engine counters, and graceful close.
func TestServerFacade(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig(),
		cimflow.WithSeed(5), cimflow.WithStrategy(cimflow.StrategyDP))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := cimflow.NewServer(engine,
		cimflow.WithWorkers(2),
		cimflow.WithMaxBatch(4),
		cimflow.WithQueueDepth(32))
	if err := srv.ServeModel("tinymlp"); err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeModel("tinymlp"); err == nil {
		t.Error("double ServeModel of one name was accepted")
	}
	shape, err := srv.InputShape("tinymlp")
	if err != nil {
		t.Fatal(err)
	}

	// The served session is the engine's: direct Session.Infer gives the
	// byte-identical reference for every request.
	sess, err := engine.SessionFor("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			input := cimflow.SeededInput(shape, uint64(40+i))
			got, err := srv.Infer(ctx, "tinymlp", input)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			want, err := sess.Infer(ctx, input)
			if err != nil {
				t.Errorf("request %d reference: %v", i, err)
				return
			}
			for j := range want.Output.Data {
				if got.Output.Data[j] != want.Output.Data[j] {
					t.Errorf("request %d: served output differs from Session.Infer at byte %d", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	m := srv.Metrics()
	mm := m.Models["tinymlp"]
	if mm.Completed != n || mm.Accepted != n {
		t.Errorf("metrics completed=%d accepted=%d, want %d", mm.Completed, mm.Accepted, n)
	}
	if mm.Batches == 0 || mm.LatencySamples != n {
		t.Errorf("metrics batches=%d latency samples=%d, want >0 and %d", mm.Batches, mm.LatencySamples, n)
	}
	// Queue wait is the part of a request's latency before dispatch.
	if mm.QueueWaitP99Ms <= 0 || mm.QueueWaitP99Ms > mm.P99Ms {
		t.Errorf("queue wait p99 %.3f ms outside (0, latency p99 %.3f ms]", mm.QueueWaitP99Ms, mm.P99Ms)
	}
	if m.CompileCalls != 1 {
		t.Errorf("CompileCalls=%d across serving, want 1", m.CompileCalls)
	}
	if m.Workers != 2 {
		t.Errorf("Workers=%d, want 2", m.Workers)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Infer(ctx, "tinymlp", cimflow.SeededInput(shape, 1)); !errors.Is(err, cimflow.ErrServerClosed) {
		t.Errorf("Infer after Close = %v, want ErrServerClosed", err)
	}
	if _, err := srv.Infer(ctx, "ghost", cimflow.SeededInput(shape, 1)); !errors.Is(err, cimflow.ErrServerClosed) {
		t.Errorf("unknown model after Close = %v, want ErrServerClosed", err)
	}
	// The engine outlives the server: sessions still serve directly.
	if _, err := sess.Infer(ctx, sess.SeededInput(1)); err != nil {
		t.Errorf("engine session after server Close: %v", err)
	}
}
