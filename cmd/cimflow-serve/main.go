// Command cimflow-serve fronts a cimflow.Server with an HTTP JSON API:
//
//	cimflow-serve -models tinyresnet,tinymlp -addr :8080
//
// HTTP API (the first two routes are internal/httpapi's):
//
//	POST /v1/models/{name}/infer   run one inference ({"seed": 7} or
//	                               {"data": [...], "shape": [h,w,c]})
//	GET  /v1/models                served models and their limits
//	GET  /healthz                  liveness
//	GET  /metrics                  queue depth, batch-size histogram,
//	                               p50/p95/p99 latency, cache/pool counters
//
// With -replay it listens on nothing: it byte-checks -check served outputs
// per model against a reference Session.Infer, then replays a synthetic
// trace — diurnal ramps, bursts, hot-model skew, a weighted tenant mix
// with per-tenant deadlines — against the server open loop and reports SLO
// attainment per tenant. A replay exits non-zero when a served output
// differs from the reference or a request fails for any reason but a shed
// or an expiry.
//
//	cimflow-serve -replay -models tinymlp -workers 2 -rps 120 -duration 10s \
//	    -tenants "gold:1:500ms,free:3:1s" -bursts 2s/1s/3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"cimflow"
	"cimflow/internal/compiler"
	"cimflow/internal/httpapi"
)

type serveFlags struct {
	addr     string
	models   string
	archPath string
	strategy string
	seed     uint64
	workers  int
	maxBatch int
	queue    int
	pool     int
	simLanes int
	artDir   string

	replay     bool
	duration   time.Duration
	rps        float64
	diurnalAmp float64
	diurnalPer time.Duration
	bursts     string
	modelSkew  float64
	traceSeed  uint64
	tenants    string
	check      int
}

// register defines the command's flags on fs, with their defaults.
func (f *serveFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&f.models, "models", "tinyresnet", "comma-separated models to serve")
	fs.StringVar(&f.archPath, "arch", "", "architecture JSON (default: paper Table I)")
	fs.StringVar(&f.strategy, "strategy", "dp", "compilation strategy: generic | duplication | dp")
	fs.Uint64Var(&f.seed, "seed", 1, "synthetic-weight seed")
	fs.IntVar(&f.workers, "workers", 4, "dispatch worker-pool size (unit of chip parallelism)")
	fs.IntVar(&f.maxBatch, "max-batch", 8, "dynamic batcher: max requests per dispatch")
	fs.IntVar(&f.queue, "queue", 64, "per-model admission queue depth")
	fs.IntVar(&f.pool, "pool", 0, "live chips shared by every served model (0 = GOMAXPROCS)")
	fs.IntVar(&f.simLanes, "sim-lanes", 1, "lane-batch capacity per chip: coalesced batches run up to this many inferences through one cycle-accurate schedule (1 = off)")
	fs.StringVar(&f.artDir, "artifact-dir", "", "compile-artifact store directory: restarts load compiled models from disk instead of recompiling")
	fs.BoolVar(&f.replay, "replay", false, "replay a synthetic trace against the server instead of listening")
	fs.DurationVar(&f.duration, "duration", 10*time.Second, "replay: trace length")
	fs.Float64Var(&f.rps, "rps", 100, "replay: base offered arrival rate, requests/second")
	fs.Float64Var(&f.diurnalAmp, "diurnal-amplitude", 0.3, "replay: sinusoidal rate swing as a fraction of -rps")
	fs.DurationVar(&f.diurnalPer, "diurnal-period", 0, "replay: diurnal period (default: the trace duration)")
	fs.StringVar(&f.bursts, "bursts", "", `replay: rate spikes "at/duration/multiplier",... e.g. "2s/1s/3"`)
	fs.Float64Var(&f.modelSkew, "model-skew", 1, "replay: Zipf exponent for hot-model skew across -models")
	fs.Uint64Var(&f.traceSeed, "trace-seed", 1, "replay: trace RNG seed")
	fs.StringVar(&f.tenants, "tenants", "", `replay: traffic classes "name[:weight[:deadline]]",... (weight 1 and deadline 1s by default)`)
	fs.IntVar(&f.check, "check", 8, "replay: byte-check this many served outputs per model against a reference session first")
}

func main() {
	var f serveFlags
	f.register(flag.CommandLine)
	flag.Parse()
	if err := run(&f); err != nil {
		log.Fatal(err)
	}
}

func run(f *serveFlags) error {
	engine, srv, err := build(f)
	if err != nil {
		return err
	}
	defer engine.Close()
	if f.replay {
		err = replay(f, srv)
	} else {
		log.Printf("listening on %s (workers=%d max-batch=%d queue=%d)", f.addr, f.workers, f.maxBatch, f.queue)
		err = httpapi.ListenAndServe(f.addr, newHandler(srv))
	}
	return errors.Join(err, srv.Close())
}

// archAndStrategy resolves -arch and -strategy, which the server and the
// reference session of -check must agree on.
func archAndStrategy(f *serveFlags) (cimflow.Config, cimflow.Strategy, error) {
	cfg := cimflow.DefaultConfig()
	if f.archPath != "" {
		var err error
		if cfg, err = cimflow.LoadConfig(f.archPath); err != nil {
			return cfg, 0, err
		}
	}
	strat, err := compiler.ParseStrategy(f.strategy)
	return cfg, strat, err
}

// build starts the engine and the server and serves -models on it.
func build(f *serveFlags) (*cimflow.Engine, *cimflow.Server, error) {
	cfg, strat, err := archAndStrategy(f)
	if err != nil {
		return nil, nil, err
	}
	engineOpts := []cimflow.Option{
		cimflow.WithStrategy(strat),
		cimflow.WithSeed(f.seed),
		cimflow.WithMaxPooledChips(f.pool),
		cimflow.WithSimLanes(f.simLanes),
	}
	if f.artDir != "" {
		store, err := cimflow.OpenArtifactStore(f.artDir)
		if err != nil {
			return nil, nil, err
		}
		// The engine owns the store now; Engine.Close closes it.
		engineOpts = append(engineOpts, cimflow.WithArtifactStore(store))
	}
	engine, err := cimflow.NewEngine(cfg, engineOpts...)
	if err != nil {
		return nil, nil, err
	}
	srv := cimflow.NewServer(engine,
		cimflow.WithWorkers(f.workers),
		cimflow.WithMaxBatch(f.maxBatch),
		cimflow.WithQueueDepth(f.queue))
	for _, name := range splitList(f.models) {
		start := time.Now()
		if err := srv.ServeModel(name); err != nil {
			srv.Close()
			engine.Close()
			return nil, nil, err
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
	return engine, srv, nil
}

// --- HTTP front end ---

// newHandler mounts httpapi's routes beside the two that are this binary's.
func newHandler(srv *cimflow.Server) http.Handler {
	mux := http.NewServeMux()
	httpapi.Register(mux, srv)
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

// --- trace replay ---

// replay checks and replays, prints the report, and fails on any failed
// request.
func replay(f *serveFlags, srv *cimflow.Server) error {
	rep, err := checkAndReplay(f, srv)
	if err != nil {
		return err
	}
	if err := rep.Table("trace replay").Write(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("sent %d, completed %d (%.1f inf/s over %v, generator lag p99 %.2f ms)\n",
		rep.Sent, rep.Completed, rep.Throughput, rep.Elapsed.Round(time.Millisecond), rep.LagP99Ms)
	var failed int64
	for _, slo := range rep.Tenants {
		failed += slo.Failed
	}
	if failed > 0 {
		return fmt.Errorf("replay: %d requests failed (not a shed or an expiry)", failed)
	}
	return nil
}

// checkAndReplay byte-checks -check served outputs per model against a
// reference engine of its own, then replays the trace. The check's
// requests are not the trace's, so the report does not count them.
func checkAndReplay(f *serveFlags, srv *cimflow.Server) (*cimflow.ReplayReport, error) {
	spec, err := traceSpec(f)
	if err != nil {
		return nil, err
	}
	if f.check > 0 {
		cfg, strat, err := archAndStrategy(f)
		if err != nil {
			return nil, err
		}
		ref, err := cimflow.NewEngine(cfg, cimflow.WithStrategy(strat), cimflow.WithSeed(f.seed))
		if err != nil {
			return nil, err
		}
		err = checkServed(srv, ref, spec.Models, f.check)
		ref.Close()
		if err != nil {
			return nil, err
		}
	}
	return cimflow.ReplayTrace(context.Background(), srv, spec)
}

// checkServed compares n seeded outputs per model, served by srv and
// computed by ref's sessions, byte for byte.
func checkServed(srv *cimflow.Server, ref *cimflow.Engine, models []string, n int) error {
	ctx := context.Background()
	for _, name := range models {
		sess, err := ref.SessionFor(name)
		if err != nil {
			return err
		}
		shape, err := srv.InputShape(name)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			input := cimflow.SeededInput(shape, uint64(i))
			want, err := sess.Infer(ctx, input)
			if err != nil {
				return fmt.Errorf("reference %s/%d: %w", name, i, err)
			}
			got, err := srv.Infer(ctx, name, input)
			if err != nil {
				return fmt.Errorf("served %s/%d: %w", name, i, err)
			}
			if !slices.Equal(got.Output.Data, want.Output.Data) {
				return fmt.Errorf("served output for %s seed %d differs from Session.Infer", name, i)
			}
		}
		log.Printf("checked %s: %d served outputs byte-identical to Session.Infer", name, n)
	}
	return nil
}

// traceSpec builds the replay's trace from the flags.
func traceSpec(f *serveFlags) (cimflow.TraceSpec, error) {
	spec := cimflow.TraceSpec{
		Duration:         f.duration,
		RPS:              f.rps,
		DiurnalAmplitude: f.diurnalAmp,
		DiurnalPeriod:    f.diurnalPer,
		Models:           splitList(f.models),
		ModelSkew:        f.modelSkew,
		Seed:             f.traceSeed,
	}
	var err error
	if spec.Bursts, err = parseBursts(f.bursts); err != nil {
		return spec, err
	}
	spec.Tenants, err = parseTenants(f.tenants)
	return spec, err
}

// parseTenants reads "name[:weight[:deadline]]" items.
func parseTenants(s string) ([]cimflow.TraceTenant, error) {
	var out []cimflow.TraceTenant
	for _, item := range splitList(s) {
		parts := strings.Split(item, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("tenant %q: want name[:weight[:deadline]]", item)
		}
		t := cimflow.TraceTenant{Name: parts[0]}
		var err error
		if len(parts) > 1 {
			if t.Weight, err = strconv.ParseFloat(parts[1], 64); err != nil {
				return nil, fmt.Errorf("tenant %q: weight: %w", item, err)
			}
		}
		if len(parts) > 2 {
			if t.Deadline, err = time.ParseDuration(parts[2]); err != nil {
				return nil, fmt.Errorf("tenant %q: deadline: %w", item, err)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// parseBursts reads "at/duration/multiplier" items.
func parseBursts(s string) ([]cimflow.Burst, error) {
	var out []cimflow.Burst
	for _, item := range splitList(s) {
		parts := strings.Split(item, "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("burst %q: want at/duration/multiplier", item)
		}
		at, err := time.ParseDuration(parts[0])
		if err != nil {
			return nil, fmt.Errorf("burst %q: %w", item, err)
		}
		d, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, fmt.Errorf("burst %q: %w", item, err)
		}
		mult, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("burst %q: %w", item, err)
		}
		out = append(out, cimflow.Burst{At: at, Duration: d, Multiplier: mult})
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
