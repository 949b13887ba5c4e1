// Loadtest: reproduce throughput/latency curves for the serving subsystem.
// An open-loop generator offers a fixed arrival rate to a cimflow.Server at
// several (rps, workers) points and tabulates completion rate, shedding,
// dynamic-batch sizes and latency quantiles — the serving analogue of the
// paper's closed-loop evaluation sweeps.
//
//	go run ./examples/loadtest [model]
//
// With -cluster, the same trace instead replays against a 3-replica
// cluster behind the router — diurnal ramp, a mid-trace burst, a
// gold/free tenant mix — and reports per-tenant SLO attainment, once
// with a slow replica and hedging disabled, once with hedging on.
//
//	go run ./examples/loadtest -cluster [model]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cimflow"
	"cimflow/internal/report"
)

const (
	duration = 3 * time.Second
	timeout  = 2 * time.Second
	maxBatch = 8
	queue    = 64
)

type point struct {
	rps     int
	workers int
}

type row struct {
	point
	sent, completed, shed, expired int64
	throughput                     float64
	p50, p95, p99                  float64
	maxBatchSeen                   int
}

func main() {
	clusterMode := flag.Bool("cluster", false, "replay a tenant-mix trace against a 3-replica cluster instead of the single-server sweep")
	flag.Parse()
	model := "tinymlp"
	if flag.NArg() > 0 {
		model = flag.Arg(0)
	}
	if *clusterMode {
		if err := runCluster(model); err != nil {
			log.Fatal(err)
		}
		return
	}
	// One engine across every point: the model compiles once and the
	// sweep reuses the artifact, exactly like a DSE sweep would.
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig(),
		cimflow.WithStrategy(cimflow.StrategyDP), cimflow.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	points := []point{
		{rps: 50, workers: 1},
		{rps: 200, workers: 1},
		{rps: 400, workers: 1},
		{rps: 400, workers: 4},
		{rps: 800, workers: 4},
	}
	table := report.New(fmt.Sprintf("serving loadtest: %s, open loop, %v per point", model, duration),
		"rps", "workers", "sent", "done", "shed", "expired", "inf/s", "p50 ms", "p95 ms", "p99 ms", "max batch")
	var w1, w4 float64
	for _, p := range points {
		r, err := run(engine, model, p)
		if err != nil {
			log.Fatal(err)
		}
		table.Add(r.rps, r.workers, r.sent, r.completed, r.shed, r.expired,
			r.throughput, r.p50, r.p95, r.p99, r.maxBatchSeen)
		if r.rps == 400 && r.workers == 1 {
			w1 = r.throughput
		}
		if r.rps == 400 && r.workers == 4 {
			w4 = r.throughput
		}
	}
	fmt.Println()
	table.Write(os.Stdout)
	fmt.Printf("\ncompilations across all %d points: %d (cache hits %d)\n",
		len(points), engine.CompileCalls(), engine.CacheHits())
	if w1 > 0 {
		fmt.Printf("worker scaling at 400 rps: 1 worker %.1f inf/s -> 4 workers %.1f inf/s (%.2fx)\n",
			w1, w4, w4/w1)
	}
}

// run offers p.rps requests/second for the configured duration and
// collects the point's serving metrics.
func run(engine *cimflow.Engine, model string, p point) (row, error) {
	srv := cimflow.NewServer(engine,
		cimflow.WithWorkers(p.workers),
		cimflow.WithMaxBatch(maxBatch),
		cimflow.WithQueueDepth(queue))
	if err := srv.ServeModel(model); err != nil {
		return row{}, err
	}
	shape, err := srv.InputShape(model)
	if err != nil {
		return row{}, err
	}

	var sent, completed, shed, expired atomic.Int64
	var wg sync.WaitGroup
	ticker := time.NewTicker(time.Second / time.Duration(p.rps))
	defer ticker.Stop()
	stop := time.After(duration)
	start := time.Now()
	var n uint64
arrivals:
	for {
		select {
		case <-stop:
			break arrivals
		case <-ticker.C:
			seed := n % 1024
			n++
			sent.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				_, err := srv.Infer(ctx, model, cimflow.SeededInput(shape, seed))
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, cimflow.ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				default:
					log.Fatalf("rps=%d workers=%d: %v", p.rps, p.workers, err)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := srv.Close(); err != nil {
		return row{}, err
	}
	mm := srv.Metrics().Models[model]
	r := row{
		point:      p,
		sent:       sent.Load(),
		completed:  completed.Load(),
		shed:       shed.Load(),
		expired:    expired.Load(),
		throughput: float64(completed.Load()) / elapsed.Seconds(),
		p50:        mm.P50Ms,
		p95:        mm.P95Ms,
		p99:        mm.P99Ms,
	}
	for size := range mm.BatchHist {
		if size > r.maxBatchSeen {
			r.maxBatchSeen = size
		}
	}
	fmt.Printf("rps=%-4d workers=%d: %.1f inf/s, p99 %.1f ms, largest batch %d\n",
		p.rps, p.workers, r.throughput, r.p99, r.maxBatchSeen)
	return r, nil
}

// --- cluster trace replay ---

// runCluster replays one trace twice against a fresh 3-replica fleet with
// the model's hash-owner replica slowed by 40ms: hedging disabled, then
// enabled. With the owner uniformly slow, a full hedge budget routes every
// request's hedge onto the fast successor and the tail collapses (see
// EXPERIMENTS.md for a recorded run; keep the offered rate modest — hedges
// spend real simulator CPU).
func runCluster(model string) error {
	spec := cimflow.TraceSpec{
		Duration:         4 * time.Second,
		RPS:              30,
		DiurnalAmplitude: 0.3,
		Models:           []string{model},
		Tenants: []cimflow.TraceTenant{
			{Name: "gold", Weight: 1, Deadline: 300 * time.Millisecond},
			{Name: "free", Weight: 3, Deadline: time.Second},
		},
		Seed: 1,
	}
	tenants := []cimflow.TenantConfig{
		{Name: "gold", Priority: cimflow.PriorityInteractive},
		{Name: "free", Priority: cimflow.PriorityStandard, Rate: 200},
	}
	owner, err := hashOwner(model)
	if err != nil {
		return err
	}
	fmt.Printf("hash owner for %s: %s (will be slowed by 40ms)\n", model, owner)
	for _, hedge := range []time.Duration{0, 15 * time.Millisecond} {
		rep, err := replayOnce(model, spec, tenants, hedge, owner)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("cluster replay: %s, 3 replicas (%s +40ms), hedge %v", model, owner, hedge)
		fmt.Println()
		if err := rep.Table(label).Write(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("hedges %d launched / %d won, retries %d, fallbacks %d\n",
			rep.Router.HedgesLaunched, rep.Router.HedgesWon, rep.Router.Retries, rep.Router.Fallbacks)
	}
	return nil
}

// hashOwner probes a throwaway fleet with one request to learn which
// replica the consistent-hash ring places the model on — the ring is a
// pure function of the member names, so the answer holds for the real
// runs below.
func hashOwner(model string) (string, error) {
	rep, err := replayOnce(model, cimflow.TraceSpec{
		Duration: 50 * time.Millisecond,
		RPS:      20,
		Models:   []string{model},
		Seed:     1,
	}, nil, 0, "")
	if err != nil {
		return "", err
	}
	owner, placements := "", int64(0)
	for name, bm := range rep.Router.Backends {
		if bm.Placements > placements {
			owner, placements = name, bm.Placements
		}
	}
	if owner == "" {
		return "", fmt.Errorf("probe trace recorded no placements")
	}
	return owner, nil
}

func replayOnce(model string, spec cimflow.TraceSpec, tenants []cimflow.TenantConfig, hedge time.Duration, slow string) (*cimflow.ReplayReport, error) {
	opts := []cimflow.RouterOption{
		cimflow.WithHedgeDelay(hedge),
		cimflow.WithHedgeBudget(1),
		cimflow.WithCheckInterval(0),
	}
	for _, t := range tenants {
		opts = append(opts, cimflow.WithTenant(t))
	}
	router := cimflow.NewRouter(opts...)
	defer router.Close()
	for i := 0; i < 3; i++ {
		engine, err := cimflow.NewEngine(cimflow.DefaultConfig(),
			cimflow.WithStrategy(cimflow.StrategyDP), cimflow.WithSeed(1))
		if err != nil {
			return nil, err
		}
		defer engine.Close()
		srv := cimflow.NewServer(engine,
			cimflow.WithWorkers(2),
			cimflow.WithMaxBatch(maxBatch),
			cimflow.WithQueueDepth(queue))
		if err := srv.ServeModel(model); err != nil {
			return nil, err
		}
		defer srv.Close()
		b := cimflow.NewLocalBackend(fmt.Sprintf("replica-%d", i), srv)
		if b.Name() == slow {
			b = cimflow.DelayedBackend(b, 40*time.Millisecond)
		}
		if err := router.AddBackend(b); err != nil {
			return nil, err
		}
	}
	return cimflow.ReplayTrace(context.Background(), router, spec)
}
