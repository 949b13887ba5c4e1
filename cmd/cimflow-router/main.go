// Command cimflow-router fronts a fleet of replica serving backends with
// the cluster router: consistent-hash placement, per-tenant priority
// classes and quotas, hedged retries, health-checked ejection, and
// Prometheus metrics. Replicas are either spawned in-process (-replicas,
// sharing one -artifact-dir so compiled models load once from disk) or
// remote cimflow-serve instances (-backends with base URLs).
//
//	cimflow-router -replicas 3 -models tinymlp,tinycnn -addr :8090
//	cimflow-router -backends http://a:8080,http://b:8080 -models tinymlp
//
// HTTP API (the first two routes are internal/httpapi's, as on
// cimflow-serve; its Client is how the router reaches -backends):
//
//	POST /v1/models/{name}/infer   route one inference; the X-Cimflow-Tenant
//	                               header selects the tenant contract
//	GET  /v1/models                models served across the fleet
//	GET  /v1/cluster               backend health and placement counters
//	GET  /healthz                  liveness (200 while >=1 backend healthy)
//	GET  /metrics                  Prometheus text format (JSON with ?format=json)
//
// The -replay mode replays a synthetic trace — diurnal ramps, bursts,
// hot-model skew, a weighted tenant mix with per-tenant deadlines —
// against the fleet open-loop and reports SLO attainment per tenant.
// -slow-replica injects extra latency into one replica to demonstrate
// hedging; -compare-hedge replays the same trace with hedging disabled
// and enabled and prints the per-tenant tail-latency comparison. A replay
// exits non-zero when a routed output differs from -check's reference or
// a request fails for any reason but a quota rejection, a shed or an
// expiry.
//
//	cimflow-router -replay -replicas 3 -models tinymlp \
//	    -tenants "gold:interactive:0:1:500ms,free:batch:50:3:1s" \
//	    -rps 120 -duration 10s -slow-replica replica-1 -slow-delay 40ms -compare-hedge
package main

import (
	"context"
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

type routerFlags struct {
	addr     string
	backends string
	replicas int
	models   string
	archPath string
	strategy string
	seed     uint64
	pool     int
	artDir   string

	workers  int
	maxBatch int
	queue    int

	hedgeDelay    time.Duration
	hedgeBudget   float64
	backendConc   int
	checkInterval time.Duration
	ejectAfter    int
	readmitAfter  int
	shedThreshold float64
	vnodes        int
	tenants       string

	replay       bool
	duration     time.Duration
	rps          float64
	diurnalAmp   float64
	diurnalPer   time.Duration
	bursts       string
	modelSkew    float64
	traceSeed    uint64
	timeout      time.Duration
	slowReplica  string
	slowDelay    time.Duration
	compareHedge bool
	check        int
}

func main() {
	var f routerFlags
	f.register(flag.CommandLine)
	flag.Parse()

	if err := run(&f); err != nil {
		log.Fatal(err)
	}
}

// register defines the command's flags on fs, with their defaults.
func (f *routerFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.addr, "addr", ":8090", "HTTP listen address")
	fs.StringVar(&f.backends, "backends", "", "comma-separated cimflow-serve base URLs; empty spawns in-process replicas")
	fs.IntVar(&f.replicas, "replicas", 3, "in-process replica count (when -backends is empty)")
	fs.StringVar(&f.models, "models", "tinymlp", "comma-separated models each replica serves")
	fs.StringVar(&f.archPath, "arch", "", "architecture JSON (default: paper Table I)")
	fs.StringVar(&f.strategy, "strategy", "dp", "compilation strategy: generic | duplication | dp")
	fs.Uint64Var(&f.seed, "seed", 1, "synthetic-weight seed (replicas must agree for byte-identical outputs)")
	fs.IntVar(&f.pool, "pool", 2, "live chips per replica, shared by its models")
	fs.StringVar(&f.artDir, "artifact-dir", "", "shared compile-artifact store: replicas load compiled models from disk")
	fs.IntVar(&f.workers, "workers", 2, "per-replica dispatch workers")
	fs.IntVar(&f.maxBatch, "max-batch", 8, "per-replica dynamic batcher: max requests per dispatch")
	fs.IntVar(&f.queue, "queue", 64, "per-replica per-model admission queue depth")
	fs.DurationVar(&f.hedgeDelay, "hedge-delay", 25*time.Millisecond, "hedge a request on the successor replica after this long without a reply (0 disables)")
	fs.Float64Var(&f.hedgeBudget, "hedge-budget", 0.1, "hedge tokens earned per admitted request (bounds extra load)")
	fs.IntVar(&f.backendConc, "backend-concurrency", 64, "inflight ceiling per backend before the least-loaded fallback engages")
	fs.DurationVar(&f.checkInterval, "check-interval", time.Second, "active health-check period (0 disables)")
	fs.IntVar(&f.ejectAfter, "eject-after", 3, "consecutive failed checks before a backend is ejected")
	fs.IntVar(&f.readmitAfter, "readmit-after", 2, "consecutive passing checks before re-admission")
	fs.Float64Var(&f.shedThreshold, "shed-threshold", 0.75, "fleet load fraction above which batch-priority traffic is shed")
	fs.IntVar(&f.vnodes, "vnodes", 64, "virtual nodes per backend on the hash ring")
	fs.StringVar(&f.tenants, "tenants", "", `tenant contracts "name:priority[:rate[:weight[:deadline]]]",... (priority: batch|standard|interactive; rate 0 = unmetered; weight and deadline feed -replay)`)
	fs.BoolVar(&f.replay, "replay", false, "replay a synthetic trace against the fleet instead of listening")
	fs.DurationVar(&f.duration, "duration", 10*time.Second, "replay: trace length")
	fs.Float64Var(&f.rps, "rps", 100, "replay: base offered arrival rate, requests/second")
	fs.Float64Var(&f.diurnalAmp, "diurnal-amplitude", 0.3, "replay: sinusoidal rate swing as a fraction of -rps")
	fs.DurationVar(&f.diurnalPer, "diurnal-period", 0, "replay: diurnal period (default: the trace duration)")
	fs.StringVar(&f.bursts, "bursts", "", `replay: rate spikes "at/duration/multiplier",... e.g. "2s/1s/3"`)
	fs.Float64Var(&f.modelSkew, "model-skew", 1, "replay: Zipf exponent for hot-model skew across -models")
	fs.Uint64Var(&f.traceSeed, "trace-seed", 1, "replay: trace RNG seed")
	fs.DurationVar(&f.timeout, "timeout", 2*time.Second, "replay: default per-request deadline for tenants without one")
	fs.StringVar(&f.slowReplica, "slow-replica", "", "replay: inject -slow-delay extra latency into this backend (by name)")
	fs.DurationVar(&f.slowDelay, "slow-delay", 30*time.Millisecond, "replay: injected latency for -slow-replica")
	fs.BoolVar(&f.compareHedge, "compare-hedge", false, "replay: run the trace with hedging off then on and compare tail latency")
	fs.IntVar(&f.check, "check", 8, "replay: byte-verify this many routed outputs per model against a direct session (local replicas only)")
}

func run(f *routerFlags) error {
	models := splitList(f.models)
	if len(models) == 0 {
		return fmt.Errorf("-models must name at least one model")
	}
	tenants, err := parseTenants(f.tenants, f.timeout)
	if err != nil {
		return err
	}
	if f.replay {
		return runReplay(f, models, tenants)
	}

	fleet, err := buildFleet(f, models)
	if err != nil {
		return err
	}
	defer fleet.Close()
	r, err := buildRouter(f, fleet, tenants, f.hedgeDelay)
	if err != nil {
		return err
	}
	defer r.Close()

	log.Printf("routing %s across %d backends on %s (hedge %v budget %g, checks every %v)",
		strings.Join(r.Models(), ","), len(r.Backends()), f.addr, f.hedgeDelay, f.hedgeBudget, f.checkInterval)
	return httpapi.ListenAndServe(f.addr, newHandler(r))
}

// --- fleet assembly ---

// fleet owns the replica backends and whatever resources back them.
type fleet struct {
	backends []cimflow.ClusterBackend
	closers  []func() error
}

func (fl *fleet) Close() {
	for i := len(fl.closers) - 1; i >= 0; i-- {
		if err := fl.closers[i](); err != nil {
			log.Printf("close: %v", err)
		}
	}
}

// buildFleet materializes the replicas: HTTP backends when -backends is
// set, otherwise in-process servers each with its own engine and chip
// pool (the shared -artifact-dir makes every replica after the first
// load compiled models from disk instead of recompiling).
func buildFleet(f *routerFlags, models []string) (*fleet, error) {
	fl := &fleet{}
	if f.backends != "" {
		for _, base := range splitList(f.backends) {
			b, err := cimflow.NewHTTPBackend(base)
			if err != nil {
				fl.Close()
				return nil, err
			}
			fl.backends = append(fl.backends, maybeSlow(f, b))
		}
		return fl, nil
	}

	cfg, strat, err := archAndStrategy(f)
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.replicas; i++ {
		engineOpts := []cimflow.Option{
			cimflow.WithStrategy(strat),
			cimflow.WithSeed(f.seed),
			cimflow.WithMaxPooledChips(f.pool),
		}
		if f.artDir != "" {
			store, err := cimflow.OpenArtifactStore(f.artDir)
			if err != nil {
				fl.Close()
				return nil, err
			}
			engineOpts = append(engineOpts, cimflow.WithArtifactStore(store))
		}
		engine, err := cimflow.NewEngine(cfg, engineOpts...)
		if err != nil {
			fl.Close()
			return nil, err
		}
		fl.closers = append(fl.closers, engine.Close)
		srv := cimflow.NewServer(engine,
			cimflow.WithWorkers(f.workers),
			cimflow.WithMaxBatch(f.maxBatch),
			cimflow.WithQueueDepth(f.queue))
		for _, name := range models {
			if err := srv.ServeModel(name); err != nil {
				fl.Close()
				return nil, err
			}
		}
		fl.closers = append(fl.closers, srv.Close)
		name := fmt.Sprintf("replica-%d", i)
		fl.backends = append(fl.backends, maybeSlow(f, cimflow.NewLocalBackend(name, srv)))
		log.Printf("replica %s up: %s", name, strings.Join(srv.Models(), ","))
	}
	return fl, nil
}

// archAndStrategy resolves -arch and -strategy, which replicas and the
// reference session of -check must agree on.
func archAndStrategy(f *routerFlags) (cimflow.Config, cimflow.Strategy, error) {
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

// maybeSlow wraps the named backend with the injected latency.
func maybeSlow(f *routerFlags, b cimflow.ClusterBackend) cimflow.ClusterBackend {
	if f.slowReplica != "" && b.Name() == f.slowReplica && f.slowDelay > 0 {
		log.Printf("injecting %v latency into %s", f.slowDelay, b.Name())
		return cimflow.DelayedBackend(b, f.slowDelay)
	}
	return b
}

func buildRouter(f *routerFlags, fl *fleet, tenants []tenantSpec, hedge time.Duration) (*cimflow.Router, error) {
	opts := []cimflow.RouterOption{
		cimflow.WithVirtualNodes(f.vnodes),
		cimflow.WithHedgeDelay(hedge),
		cimflow.WithHedgeBudget(f.hedgeBudget),
		cimflow.WithBackendConcurrency(f.backendConc),
		cimflow.WithCheckInterval(f.checkInterval),
		cimflow.WithEjectAfter(f.ejectAfter),
		cimflow.WithReadmitAfter(f.readmitAfter),
		cimflow.WithPriorityShedThreshold(f.shedThreshold),
	}
	for _, t := range tenants {
		opts = append(opts, cimflow.WithTenant(t.cfg))
	}
	r := cimflow.NewRouter(opts...)
	for _, b := range fl.backends {
		if err := r.AddBackend(b); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// --- tenant and burst specs ---

type tenantSpec struct {
	cfg      cimflow.TenantConfig
	weight   float64
	deadline time.Duration
}

// parseTenants reads "name:priority[:rate[:weight[:deadline]]]" items.
func parseTenants(s string, defaultDeadline time.Duration) ([]tenantSpec, error) {
	var out []tenantSpec
	for _, item := range splitList(s) {
		parts := strings.Split(item, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("tenant %q: want name:priority[:rate[:weight[:deadline]]]", item)
		}
		spec := tenantSpec{weight: 1, deadline: defaultDeadline}
		spec.cfg.Name = parts[0]
		p, ok := cimflow.ParsePriority(parts[1])
		if !ok {
			return nil, fmt.Errorf("tenant %q: unknown priority %q", item, parts[1])
		}
		spec.cfg.Priority = p
		var err error
		if len(parts) > 2 {
			if spec.cfg.Rate, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return nil, fmt.Errorf("tenant %q: rate: %w", item, err)
			}
		}
		if len(parts) > 3 {
			if spec.weight, err = strconv.ParseFloat(parts[3], 64); err != nil {
				return nil, fmt.Errorf("tenant %q: weight: %w", item, err)
			}
		}
		if len(parts) > 4 {
			if spec.deadline, err = time.ParseDuration(parts[4]); err != nil {
				return nil, fmt.Errorf("tenant %q: deadline: %w", item, err)
			}
		}
		out = append(out, spec)
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

// --- HTTP front end ---

// newHandler mounts httpapi's routes beside the three that are the router's.
func newHandler(r *cimflow.Router) http.Handler {
	mux := http.NewServeMux()
	httpapi.Register(mux, r)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		healthy := 0
		for _, name := range r.Backends() {
			if r.Healthy(name) {
				healthy++
			}
		}
		status := http.StatusOK
		if healthy == 0 {
			status = http.StatusServiceUnavailable
		}
		httpapi.WriteJSON(w, status, map[string]any{
			"status":           map[bool]string{true: "ok", false: "no healthy backends"}[healthy > 0],
			"backends_healthy": healthy, "backends_total": len(r.Backends()),
		})
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, req *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, r.Metrics())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			httpapi.WriteJSON(w, http.StatusOK, r.Metrics())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	return mux
}

// --- trace replay ---

func runReplay(f *routerFlags, models []string, tenants []tenantSpec) error {
	bursts, err := parseBursts(f.bursts)
	if err != nil {
		return err
	}
	spec := cimflow.TraceSpec{
		Duration:         f.duration,
		RPS:              f.rps,
		DiurnalAmplitude: f.diurnalAmp,
		DiurnalPeriod:    f.diurnalPer,
		Bursts:           bursts,
		Models:           models,
		ModelSkew:        f.modelSkew,
		Seed:             f.traceSeed,
	}
	for _, t := range tenants {
		spec.Tenants = append(spec.Tenants, cimflow.TraceTenant{
			Name: t.cfg.Name, Weight: t.weight, Deadline: t.deadline,
		})
	}
	if len(spec.Tenants) == 0 {
		spec.Tenants = []cimflow.TraceTenant{{Name: "default", Weight: 1, Deadline: f.timeout}}
	}

	hedges := []time.Duration{f.hedgeDelay}
	if f.compareHedge {
		hedges = []time.Duration{0, f.hedgeDelay}
	}
	reports := make([]*cimflow.ReplayReport, 0, len(hedges))
	var failed int64
	for _, hedge := range hedges {
		rep, err := replayOnce(f, models, tenants, spec, hedge)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("trace replay (hedge %v, budget %g)", hedge, f.hedgeBudget)
		if hedge == 0 {
			label = "trace replay (hedging disabled)"
		}
		if err := rep.Table(label).Write(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("sent %d, completed %d (%.1f inf/s over %v, generator lag p99 %.2f ms); hedges %d launched / %d won, retries %d, fallbacks %d\n\n",
			rep.Sent, rep.Completed, rep.Throughput, rep.Elapsed.Round(time.Millisecond), rep.LagP99Ms,
			rep.Router.HedgesLaunched, rep.Router.HedgesWon, rep.Router.Retries, rep.Router.Fallbacks)
		reports = append(reports, rep)
		for _, slo := range rep.Tenants {
			failed += slo.Failed
		}
	}
	if f.compareHedge {
		printHedgeComparison(reports[0], reports[1])
	}
	if failed > 0 {
		return fmt.Errorf("replay: %d requests failed (not a quota rejection, a shed or an expiry)", failed)
	}
	return nil
}

// replayOnce builds a fresh fleet, optionally byte-verifies routed outputs,
// then builds a router with the given hedge delay and replays the trace.
func replayOnce(f *routerFlags, models []string, tenants []tenantSpec,
	spec cimflow.TraceSpec, hedge time.Duration) (*cimflow.ReplayReport, error) {
	fl, err := buildFleet(f, models)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	if f.check > 0 && f.backends == "" {
		if err := verifyRouted(f, fl, models); err != nil {
			return nil, err
		}
	}
	r, err := buildRouter(f, fl, tenants, hedge)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return cimflow.ReplayTrace(context.Background(), r, spec)
}

// verifyRouted proves the routed path output-neutral: for each model,
// -check seeded inputs routed over the fleet must match a dedicated
// reference session byte for byte. They go through a router of their own,
// closed on return, so the replay's report counts replayed requests only.
func verifyRouted(f *routerFlags, fl *fleet, models []string) error {
	r, err := buildRouter(f, fl, nil, 0)
	if err != nil {
		return err
	}
	defer r.Close()
	cfg, strat, err := archAndStrategy(f)
	if err != nil {
		return err
	}
	engine, err := cimflow.NewEngine(cfg,
		cimflow.WithStrategy(strat), cimflow.WithSeed(f.seed))
	if err != nil {
		return err
	}
	defer engine.Close()
	for _, name := range models {
		sess, err := engine.SessionFor(name)
		if err != nil {
			return err
		}
		shape, err := r.InputShape(name)
		if err != nil {
			return err
		}
		for i := 0; i < f.check; i++ {
			input := cimflow.SeededInput(shape, uint64(i))
			want, err := sess.Infer(context.Background(), input)
			if err != nil {
				return fmt.Errorf("reference %s/%d: %w", name, i, err)
			}
			got, err := r.Infer(context.Background(), "verify", name, input)
			if err != nil {
				return fmt.Errorf("routed %s/%d: %w", name, i, err)
			}
			if !slices.Equal(got.Output.Data, want.Output.Data) {
				return fmt.Errorf("routed output for %s seed %d differs from direct Session.Infer", name, i)
			}
		}
		log.Printf("verified %s: %d routed outputs byte-identical to Session.Infer", name, f.check)
	}
	return nil
}

// printHedgeComparison lines up per-tenant tails from the hedging-off and
// hedging-on runs of the same trace.
func printHedgeComparison(off, on *cimflow.ReplayReport) {
	byTenant := make(map[string]cimflow.TenantSLO, len(off.Tenants))
	for _, slo := range off.Tenants {
		byTenant[slo.Tenant] = slo
	}
	fmt.Println("# hedging impact (same trace, hedging off vs on)")
	fmt.Printf("%-12s %12s %12s %12s %14s\n", "tenant", "p99 off ms", "p99 on ms", "delta", "attainment")
	for _, slo := range on.Tenants {
		base, ok := byTenant[slo.Tenant]
		if !ok {
			continue
		}
		delta := "-"
		if base.P99Ms > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(slo.P99Ms-base.P99Ms)/base.P99Ms)
		}
		fmt.Printf("%-12s %12.2f %12.2f %12s %7.3f→%.3f\n",
			slo.Tenant, base.P99Ms, slo.P99Ms, delta, base.Attainment, slo.Attainment)
	}
	fmt.Printf("hedges launched %d (won %d); retries %d\n",
		on.Router.HedgesLaunched, on.Router.HedgesWon, on.Router.Retries)
}
