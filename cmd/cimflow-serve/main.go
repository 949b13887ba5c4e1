// Command cimflow-serve fronts a cimflow.Server with an HTTP JSON API, or
// drives it with a built-in open-loop load generator:
//
//	cimflow-serve -models tinyresnet,tinymlp -addr :8080
//	cimflow-serve -loadgen -models tinymlp -rps 100 -duration 10s -workers 4
//
// HTTP API:
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cimflow"
	"cimflow/internal/compiler"
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
		maxDelay = flag.Duration("max-delay", 2*time.Millisecond, "dynamic batcher: max wait to fill a batch")
		queue    = flag.Int("queue", 64, "per-model admission queue depth")
		pool     = flag.Int("pool", 0, "pooled chips per session (0 = GOMAXPROCS)")
		simWork  = flag.Int("sim-workers", 1, "per-chip simulation scheduler width (1 = serial; serving parallelizes across chips, 0 = GOMAXPROCS per chip)")
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
		cimflow.WithSimWorkers(*simWork),
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
		cimflow.WithMaxDelay(*maxDelay),
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
		// the serve time is weight staging and chip-pool construction.
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

	httpSrv := newHTTPServer(*addr, newHandler(srv))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Shutdown does the draining; main must wait for it to finish, or the
	// process exits while in-flight responses are still being written.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Print("draining...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	log.Printf("listening on %s (workers=%d max-batch=%d max-delay=%v queue=%d)",
		*addr, *workers, *maxBatch, *maxDelay, *queue)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}

// --- HTTP front end ---

// inferRequest is the POST body: either a deterministic seeded input or
// raw INT8 data with an explicit [h, w, c] shape.
type inferRequest struct {
	Seed  *uint64 `json:"seed,omitempty"`
	Data  []int8  `json:"data,omitempty"`
	Shape []int   `json:"shape,omitempty"`
}

type inferResponse struct {
	Model     string  `json:"model"`
	Shape     []int   `json:"shape"`
	Output    []int8  `json:"output"`
	Cycles    int64   `json:"cycles"`
	Seconds   float64 `json:"seconds"`
	EnergyMJ  float64 `json:"energy_mj"`
	LatencyMs float64 `json:"latency_ms"`
}

type modelInfo struct {
	Name       string `json:"name"`
	InputShape []int  `json:"input_shape"`
}

func newHandler(srv *cimflow.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": len(srv.Models())})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		var out []modelInfo
		for _, name := range srv.Models() {
			shape, err := srv.InputShape(name)
			if err != nil {
				continue
			}
			out = append(out, modelInfo{Name: name, InputShape: []int{shape.H, shape.W, shape.C}})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := srv.Metrics().WritePrometheus(w); err != nil {
				log.Printf("metrics: %v", err)
			}
			return
		}
		writeJSON(w, http.StatusOK, srv.Metrics())
	})
	mux.HandleFunc("POST /v1/models/{name}/infer", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		shape, err := srv.InputShape(name)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		var req inferRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxInferBody(shape))
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, decodeStatus(err), fmt.Errorf("decoding request: %w", err))
			return
		}
		input, err := buildInput(shape, &req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		start := time.Now()
		res, err := srv.Infer(r.Context(), name, input)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, inferResponse{
			Model:     name,
			Shape:     []int{res.Output.H, res.Output.W, res.Output.C},
			Output:    res.Output.Data,
			Cycles:    res.Stats.Cycles,
			Seconds:   res.Seconds,
			EnergyMJ:  res.EnergyMJ,
			LatencyMs: float64(time.Since(start)) / float64(time.Millisecond),
		})
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

// The connection deadlines of the HTTP front end: no client can hold a
// connection, and the goroutine serving it, open without making progress.
const (
	// readHeaderTimeout bounds how long a connection may take to send its
	// request headers, so idle or trickling clients cannot hold connections open.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds the whole request, headers and body; the largest
	// infer body is maxInferBody, a few hundred KB.
	readTimeout = 30 * time.Second
	// writeTimeout runs from the end of the headers to the end of the reply,
	// so it covers the inference itself: queue wait, batching and the
	// slowest zoo model's simulation fit with a wide margin.
	writeTimeout = 2 * time.Minute
	// idleTimeout bounds a keep-alive connection's wait for its next request.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer is the front end's http.Server with every deadline set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// maxInferBody bounds an infer request's body by the model's input tensor
// written as JSON: "-128, " is the widest an INT8 element gets, and 1 KiB
// covers the envelope (seed, shape, key names).
func maxInferBody(shape cimflow.Shape) int64 { return 1024 + 6*int64(shape.Elems()) }

// decodeStatus is 413 for a body cut off by maxInferBody, 400 for any other
// undecodable body.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// buildInput materializes the request's tensor: seeded or raw.
func buildInput(shape cimflow.Shape, req *inferRequest) (cimflow.Tensor, error) {
	if req.Seed != nil {
		return cimflow.SeededInput(shape, *req.Seed), nil
	}
	if len(req.Shape) != 3 {
		return cimflow.Tensor{}, fmt.Errorf("request needs \"seed\" or \"data\" with \"shape\": [h,w,c]")
	}
	t := cimflow.Tensor{H: req.Shape[0], W: req.Shape[1], C: req.Shape[2], Data: req.Data}
	if t.Len() != len(req.Data) {
		return cimflow.Tensor{}, fmt.Errorf("data has %d elements, shape %dx%dx%d needs %d",
			len(req.Data), t.H, t.W, t.C, t.Len())
	}
	return t, nil
}

// statusFor maps the serving subsystem's typed errors onto HTTP codes.
// Unrecognized errors are server-side faults (simulation failures, closed
// sessions), not client mistakes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, cimflow.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, cimflow.ErrOverloaded),
		errors.Is(err, cimflow.ErrServerClosed),
		errors.Is(err, cimflow.ErrSessionClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
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
					if int(seed) < check && !bytes.Equal(int8AsBytes(res.Output.Data), int8AsBytes(refs[seed])) {
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

func int8AsBytes(v []int8) []byte {
	out := make([]byte, len(v))
	for i, b := range v {
		out[i] = byte(b)
	}
	return out
}
