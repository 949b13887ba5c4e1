// Command cimflow-serve fronts a cimflow.Server with an HTTP JSON API:
//
//	cimflow-serve -models tinyresnet,tinymlp -addr :8080
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
// To offer it load, point cimflow-router -replay -backends at it.
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"
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
	for _, name := range strings.Split(*models, ",") {
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
