package cimflow_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cimflow"
)

// TestClusterFacade wires two replica Servers behind a Router through the
// public API alone: placement works, tenant quotas enforce, and the routed
// output matches a direct Server.Infer byte for byte.
func TestClusterFacade(t *testing.T) {
	router := cimflow.NewRouter(
		cimflow.WithCheckInterval(0),
		cimflow.WithHedgeDelay(time.Millisecond),
		cimflow.WithHedgeBudget(1),
		cimflow.WithTenant(cimflow.TenantConfig{
			Name: "metered", Priority: cimflow.PriorityStandard, Rate: 0.001, Burst: 2,
		}))
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
	shape, err := router.InputShape("tinymlp")
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

	// The metered tenant's burst of 2 exhausts on the third request.
	for i := 0; i < 2; i++ {
		if _, err := router.Infer(ctx, "metered", "tinymlp", input); err != nil {
			t.Fatalf("metered request %d: %v", i, err)
		}
	}
	if _, err := router.Infer(ctx, "metered", "tinymlp", input); !errors.Is(err, cimflow.ErrQuotaExceeded) {
		t.Fatalf("over-quota request = %v, want ErrQuotaExceeded", err)
	}

	m := router.Metrics()
	if m.Tenants["metered"].RejectedQuota != 1 {
		t.Errorf("RejectedQuota = %d, want 1", m.Tenants["metered"].RejectedQuota)
	}
	var sb strings.Builder
	if err := router.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `cimflow_tenant_requests_total{tenant="metered",outcome="rejected_quota"} 1`) {
		t.Errorf("router exposition missing quota rejection:\n%s", sb.String())
	}
}

// TestServerMetricsPrometheus: the single-node snapshot renders in the
// same exposition format the cluster router emits.
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
