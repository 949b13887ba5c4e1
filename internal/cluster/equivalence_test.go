package cluster

import (
	"bytes"
	"context"
	"fmt"
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

// replicaFleet builds n in-process replicas, each a serve.Server with its
// own sessions (own chip pools) over shared compiled artifacts — the
// deployment shape of the benchmark's serve_tiny.
func replicaFleet(t *testing.T, graphs []*model.Graph, seed uint64, n int) []*serve.Server {
	t.Helper()
	cfg := arch.DefaultConfig()
	type compiledModel struct {
		g        *model.Graph
		compiled *compiler.Compiled
	}
	compiledModels := make([]compiledModel, len(graphs))
	for i, g := range graphs {
		compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
		if err != nil {
			t.Fatal(err)
		}
		compiledModels[i] = compiledModel{g: g, compiled: compiled}
	}
	servers := make([]*serve.Server, n)
	for i := range servers {
		srv := serve.NewServer(2)
		for _, cm := range compiledModels {
			sess, err := core.NewSession(cm.compiled, model.NewSeededWeights(cm.g, seed), core.Options{MaxPooledChips: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sess.Close() })
			if err := srv.AddModel(cm.g.Name, sess, serve.ModelConfig{
				MaxBatch: 4, QueueDepth: 256,
			}); err != nil {
				t.Fatal(err)
			}
		}
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
	}
	return servers
}

// TestRouterEquivalence is the cluster acceptance test: every request
// routed through the cluster — at any replica count, with hedging enabled
// and firing — returns byte-identical outputs to a direct Session.Infer
// with the same input. Run under -race in CI.
func TestRouterEquivalence(t *testing.T) {
	graphs := []*model.Graph{model.TinyMLP(), model.TinyCNN()}
	const seed = 11

	// References from a dedicated session per model.
	cfg := arch.DefaultConfig()
	const seeds = 6
	refs := make(map[string][][]byte, len(graphs))
	for _, g := range graphs {
		compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := core.NewSession(compiled, model.NewSeededWeights(g, seed), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		outs := make([][]byte, seeds)
		for i := range outs {
			res, err := sess.Infer(context.Background(), model.SeededInput(g.Nodes[0].OutShape, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = int8Bytes(res.Output)
		}
		refs[g.Name] = outs
		sess.Close()
	}

	for _, replicas := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			servers := replicaFleet(t, graphs, seed, replicas)
			// A 1µs hedge delay fires on nearly every simulated inference
			// (a tiny model's takes tens of microseconds and more), so the
			// hedging path itself is proven output-neutral.
			r := testRouter(t, withHedgeDelay(time.Microsecond))
			for i, srv := range servers {
				if err := r.AddBackend(NewLocalBackend(fmt.Sprintf("replica-%d", i), srv)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, len(graphs)*seeds*3)
			for round := 0; round < 3; round++ {
				for _, g := range graphs {
					for i := 0; i < seeds; i++ {
						wg.Add(1)
						go func(g *model.Graph, i, round int) {
							defer wg.Done()
							tenant := fmt.Sprintf("tenant-%d", round)
							ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
							defer cancel()
							res, err := r.Infer(ctx, tenant, g.Name, model.SeededInput(g.Nodes[0].OutShape, uint64(i)))
							if err != nil {
								errs <- fmt.Errorf("%s seed %d: %w", g.Name, i, err)
								return
							}
							if !bytes.Equal(int8Bytes(res.Output), refs[g.Name][i]) {
								errs <- fmt.Errorf("%s seed %d: routed output differs from direct Session.Infer", g.Name, i)
							}
						}(g, i, round)
					}
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			m := r.Metrics()
			var placed int64
			for _, bm := range m.Backends {
				placed += bm.Placements
			}
			if placed == 0 {
				t.Fatal("no placements recorded")
			}
			if replicas > 1 && m.HedgesLaunched == 0 {
				t.Error("hedging never fired despite the 1µs hedge delay — the test no longer exercises the hedged path")
			}
		})
	}
}

// TestEjectionAndReadmission: a replica whose server is closed leaves
// placement at once — its model's next request goes to the successor, with
// the same output.
func TestEjectionAndReadmission(t *testing.T) {
	g := model.TinyMLP()
	servers := replicaFleet(t, []*model.Graph{g}, 11, 2)
	r := testRouter(t, withHedgeDelay(0))
	for i, srv := range servers {
		if err := r.AddBackend(NewLocalBackend(fmt.Sprintf("replica-%d", i), srv)); err != nil {
			t.Fatal(err)
		}
	}
	prefs := r.placement(g.Name)
	owner, successor := prefs[0].b.Name(), prefs[1].b.Name()
	input := model.SeededInput(g.Nodes[0].OutShape, 3)
	infer := func() []byte {
		t.Helper()
		res, err := r.Infer(context.Background(), "", g.Name, input)
		if err != nil {
			t.Fatal(err)
		}
		return int8Bytes(res.Output)
	}
	placements := func(name string) int64 { return r.Metrics().Backends[name].Placements }

	want := infer()
	if placements(owner) != 1 || placements(successor) != 0 {
		t.Fatalf("the hash owner must serve first: %s=%d %s=%d", owner, placements(owner), successor, placements(successor))
	}
	for i, srv := range servers {
		if fmt.Sprintf("replica-%d", i) == owner {
			srv.Close()
		}
	}
	if got := infer(); !bytes.Equal(got, want) {
		t.Fatal("the successor's output differs from the closed owner's")
	}
	if placements(owner) != 1 || placements(successor) != 1 {
		t.Fatalf("placement did not skip the closed owner: %s=%d %s=%d", owner, placements(owner), successor, placements(successor))
	}
}

func int8Bytes(t tensor.Tensor) []byte {
	out := make([]byte, len(t.Data))
	for i, v := range t.Data {
		out[i] = byte(v)
	}
	return out
}
