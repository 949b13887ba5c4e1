package cimflow_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"cimflow"
)

// TestClusterFacade wires two replica Servers behind a Router through the
// public API alone: the routed output matches a direct Server.Infer byte
// for byte, and the snapshot counts the placement and no tenant.
func TestClusterFacade(t *testing.T) {
	router := cimflow.NewRouter()
	defer router.Close()

	servers := make([]*cimflow.Server, 2)
	for i := range servers {
		engine, err := cimflow.NewEngine(cimflow.DefaultConfig(),
			cimflow.WithStrategy(cimflow.StrategyGeneric), cimflow.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		defer engine.Close()
		srv := cimflow.NewServer(engine, cimflow.WithWorkers(1))
		if err := srv.ServeModel("tinymlp"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
		name := []string{"replica-a", "replica-b"}[i]
		if err := router.AddBackend(cimflow.NewLocalBackend(name, srv)); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	shape, err := servers[0].InputShape("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	input := cimflow.SeededInput(shape, 3)
	want, err := servers[0].Infer(ctx, "tinymlp", input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := router.Infer(ctx, "gold", "tinymlp", input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(int8Raw(got.Output.Data), int8Raw(want.Output.Data)) {
		t.Fatal("routed output differs from direct Server.Infer")
	}

	m := router.Metrics()
	if n := m.Backends["replica-a"].Placements + m.Backends["replica-b"].Placements; n != 1 {
		t.Errorf("placements = %d, want 1", n)
	}
	if len(m.Tenants) != 0 {
		t.Errorf("tenants = %v, want none", m.Tenants)
	}
}

// TestServerMetricsPrometheus: the server snapshot renders in the
// Prometheus text exposition format.
func TestServerMetricsPrometheus(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig(),
		cimflow.WithStrategy(cimflow.StrategyGeneric))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := cimflow.NewServer(engine, cimflow.WithWorkers(1))
	if err := srv.ServeModel("tinymlp"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := engine.SessionFor("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Infer(context.Background(), "tinymlp", sess.SeededInput(1)); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := srv.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE cimflow_serve_workers gauge",
		"# TYPE cimflow_model_requests_total counter",
		`cimflow_model_requests_total{model="tinymlp",outcome="completed"} 1`,
		`cimflow_model_latency_ms{model="tinymlp",quantile="0.99"}`,
		"# TYPE cimflow_model_queue_wait_ms gauge",
		`cimflow_model_queue_wait_ms{model="tinymlp",quantile="0.5"}`,
		"cimflow_serve_compile_calls_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func int8Raw(v []int8) []byte {
	out := make([]byte, len(v))
	for i, b := range v {
		out[i] = byte(b)
	}
	return out
}
