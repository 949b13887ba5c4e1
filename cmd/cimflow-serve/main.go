// Command cimflow-serve fronts a cimflow.Server with an HTTP JSON API, or
// drives it with a built-in open-loop load generator:
//
//	cimflow-serve -models tinyresnet,tinymlp -addr :8080
//	cimflow-serve -loadgen -models tinymlp -rps 100 -duration 10s -workers 4
//
// HTTP API (the first two routes are internal/httpapi's, as on cimflow-router):
//
//	POST /v1/models/{name}/infer   run one inference ({"seed": 7} or
//	                               {"data": [...], "shape": [h,w,c]})
//	GET  /v1/models                served models and their limits
//	GET  /healthz                  liveness
//	GET  /metrics                  queue depth, batch-size histogram,
//	                               p50/p95/p99 latency, cache/pool counters
//
// The load generator fires requests at a fixed arrival rate regardless of
// completions (open loop), so queueing and shedding behave like production
// traffic rather than a closed benchmark loop; it verifies served outputs
// byte-for-byte against direct Session.Infer and prints the batch-size
// histogram and latency quantiles that demonstrate dynamic batching.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cimflow"
	"cimflow/internal/compiler"
	"cimflow/internal/httpapi"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		models   = flag.String("models", "tinyresnet", "comma-separated models to serve")
		archPath = flag.String("arch", "", "architecture JSON (default: paper Table I)")
		strategy = flag.String("strategy", "dp", "compilation strategy: generic | duplication | dp")
		seed     = flag.Uint64("seed", 1, "synthetic-weight seed")
		workers  = flag.Int("workers", 4, "dispatch worker-pool size (unit of chip parallelism)")
		maxBatch = flag.Int("max-batch", 8, "dynamic batcher: max requests per dispatch")
		queue    = flag.Int("queue", 64, "per-model admission queue depth")
		pool     = flag.Int("pool", 0, "live chips shared by every served model (0 = GOMAXPROCS)")
		simLanes = flag.Int("sim-lanes", 1, "lane-batch capacity per chip: coalesced batches run up to this many inferences through one cycle-accurate schedule (1 = off)")
		artDir   = flag.String("artifact-dir", "", "compile-artifact store directory: restarts load compiled models from disk instead of recompiling")

		loadgen  = flag.Bool("loadgen", false, "run the open-loop load generator instead of listening")
		rps      = flag.Int("rps", 50, "loadgen: offered arrival rate, requests/second")
		duration = flag.Duration("duration", 10*time.Second, "loadgen: how long to offer load")
		timeout  = flag.Duration("timeout", 5*time.Second, "loadgen: per-request deadline")
		check    = flag.Int("check", 16, "loadgen: verify this many distinct inputs byte-for-byte against Session.Infer")
	)
	flag.Parse()

	cfg := cimflow.DefaultConfig()
	if *archPath != "" {
		var err error
		if cfg, err = cimflow.LoadConfig(*archPath); err != nil {
			log.Fatal(err)
		}
	}
	strat, err := compiler.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	engineOpts := []cimflow.Option{
		cimflow.WithStrategy(strat),
		cimflow.WithSeed(*seed),
		cimflow.WithMaxPooledChips(*pool),
		cimflow.WithSimLanes(*simLanes),
	}
	if *artDir != "" {
		store, err := cimflow.OpenArtifactStore(*artDir)
		if err != nil {
			log.Fatal(err)
		}
		// The engine owns the store now; Engine.Close releases its lock.
		engineOpts = append(engineOpts, cimflow.WithArtifactStore(store))
	}
	engine, err := cimflow.NewEngine(cfg, engineOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	srv := cimflow.NewServer(engine,
		cimflow.WithWorkers(*workers),
		cimflow.WithMaxBatch(*maxBatch),
		cimflow.WithQueueDepth(*queue))
	names := strings.Split(*models, ",")
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		start := time.Now()
		if err := srv.ServeModel(name); err != nil {
			log.Fatal(err)
		}
		total := time.Since(start)
		// The facade Session carries the compile provenance (fresh compile
		// vs artifact-store load vs in-memory hit) and its cost; the rest of
		// the serve time is weight staging; chips are built or restaged by
		// the first requests.
		if sess, err := engine.SessionFor(name); err == nil {
			info := sess.CompileInfo()
			log.Printf("serving %s (%s in %v, staged in %v)", name, info.Source,
				info.Duration.Round(10*time.Microsecond),
				(total - info.Duration).Round(10*time.Microsecond))
		} else {
			log.Printf("serving %s (compiled and staged in %v)", name, total.Round(time.Millisecond))
		}
	}

	if *loadgen {
		if err := runLoadgen(engine, srv, names[0], *rps, *duration, *timeout, *check); err != nil {
			log.Fatal(err)
		}
		return
	}

	log.Printf("listening on %s (workers=%d max-batch=%d queue=%d)", *addr, *workers, *maxBatch, *queue)
	if err := httpapi.ListenAndServe(*addr, newHandler(srv)); err != nil {
		log.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}

// --- HTTP front end ---

// newHandler mounts httpapi's routes beside the two that are this binary's.
func newHandler(srv *cimflow.Server) http.Handler {
	mux := http.NewServeMux()
	httpapi.Register(mux, httpapi.SingleTenant{Server: srv})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": len(srv.Models())})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := srv.Metrics().WritePrometheus(w); err != nil {
				log.Printf("metrics: %v", err)
			}
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, srv.Metrics())
	})
	return mux
}

// wantsPrometheus decides the /metrics encoding: explicit ?format=prom
// wins, otherwise an Accept header preferring text/plain (what a
// Prometheus scraper sends) selects the exposition format, and the
// default stays JSON for human curls and existing tooling.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// --- open-loop load generator ---

func runLoadgen(engine *cimflow.Engine, srv *cimflow.Server, model string,
	rps int, duration, timeout time.Duration, check int) error {
	if rps <= 0 {
		return fmt.Errorf("loadgen: -rps must be positive")
	}
	if check < 0 {
		return fmt.Errorf("loadgen: -check must be non-negative")
	}
	shape, err := srv.InputShape(model)
	if err != nil {
		return err
	}
	// References for the byte-identical check come from the engine's own
	// session — the same compiled artifact the server dispatches onto.
	sess, err := engine.SessionFor(model)
	if err != nil {
		return err
	}
	refs := make([][]int8, check)
	for i := range refs {
		res, err := sess.Infer(context.Background(), cimflow.SeededInput(shape, uint64(i)))
		if err != nil {
			return fmt.Errorf("loadgen reference %d: %w", i, err)
		}
		refs[i] = res.Output.Data
	}

	fmt.Printf("loadgen: %s, %d req/s offered for %v (deadline %v per request)\n",
		model, rps, duration, timeout)
	var (
		sent, completed, shed, expired, failed, mismatched atomic.Int64
		wg                                                 sync.WaitGroup
	)
	interval := time.Second / time.Duration(rps)
	ticker := time.NewTicker(interval)
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
			seq := n
			n++
			sent.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				seed := seq % uint64(max(check, 1024))
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				res, err := srv.Infer(ctx, model, cimflow.SeededInput(shape, seed))
				switch {
				case err == nil:
					completed.Add(1)
					if int(seed) < check && !slices.Equal(res.Output.Data, refs[seed]) {
						mismatched.Add(1)
					}
				case errors.Is(err, cimflow.ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				default:
					failed.Add(1)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := srv.Close(); err != nil {
		return err
	}

	m := srv.Metrics()
	mm := m.Models[model]
	fmt.Printf("\nsent %d: %d completed, %d shed, %d deadline-expired, %d failed\n",
		sent.Load(), completed.Load(), shed.Load(), expired.Load(), failed.Load())
	fmt.Printf("throughput: %.1f inf/s wall-clock over %v (workers=%d)\n",
		float64(completed.Load())/elapsed.Seconds(), elapsed.Round(time.Millisecond), m.Workers)
	fmt.Printf("latency: p50 %.1f ms, p95 %.1f ms, p99 %.1f ms (%d samples)\n",
		mm.P50Ms, mm.P95Ms, mm.P99Ms, mm.LatencySamples)
	fmt.Printf("batch-size histogram (%d dispatches):\n", mm.Batches)
	for size := 1; size <= mm.MaxBatch; size++ {
		if count, ok := mm.BatchHist[size]; ok {
			fmt.Printf("  %2d: %s %d\n", size, strings.Repeat("#", int(min(count, 60))), count)
		}
	}
	fmt.Printf("compilations: %d (cache hits %d), pooled chips: %d\n",
		m.CompileCalls, m.CacheHits, m.PooledChips)
	if check > 0 {
		if mismatched.Load() != 0 {
			return fmt.Errorf("loadgen: %d served outputs differ from direct Session.Infer", mismatched.Load())
		}
		fmt.Printf("verified: served outputs byte-identical to Session.Infer on %d reference inputs\n", check)
	}
	return nil
}
