package cimflow

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"cimflow/internal/cluster"
	"cimflow/internal/serve"
)

// Serving errors and metric types re-exported from internal/serve.
var (
	// ErrOverloaded reports load shedding: the model's bounded request
	// queue was full at admission time.
	ErrOverloaded = serve.ErrOverloaded
	// ErrUnknownModel reports a request for a model the server does not
	// serve.
	ErrUnknownModel = serve.ErrUnknownModel
	// ErrServerClosed reports a request submitted after Server.Close.
	ErrServerClosed = serve.ErrClosed
)

type (
	// ModelMetrics is one served model's snapshot: queue state, admission
	// counters, batch-size histogram, latency and queue-wait quantiles.
	ModelMetrics = serve.ModelMetrics
)

// ServerMetrics is a point-in-time snapshot of a Server: per-model serving
// metrics plus the engine's compile-cache and chip-pool counters.
type ServerMetrics struct {
	Workers      int                     `json:"workers"`
	Models       map[string]ModelMetrics `json:"models"`
	CompileCalls int64                   `json:"compile_calls"`
	CacheHits    int64                   `json:"cache_hits"`
	PooledChips  int                     `json:"pooled_chips"`
}

// ServeOption configures a Server or one served model, mirroring the
// Engine's functional-option style.
type ServeOption func(*serveSettings)

type serveSettings struct {
	workers int
	model   serve.ModelConfig
}

// WithWorkers sets the server's dispatch worker-pool size (default 1).
// Workers are the unit of chip parallelism: each dispatches one coalesced
// batch at a time, sequentially within the batch, so total simultaneous
// simulations equal the worker count.
func WithWorkers(n int) ServeOption {
	return func(s *serveSettings) { s.workers = n }
}

// WithMaxBatch caps how many queued requests the dynamic batcher coalesces
// into one dispatch (default 8). It is the batcher's only setting: a batch
// is offered to the workers while it fills, so an idle worker takes a batch
// of one at once and batches grow only while every worker is busy.
func WithMaxBatch(n int) ServeOption {
	return func(s *serveSettings) { s.model.MaxBatch = n }
}

// WithMaxDelay does nothing: the batcher has no fill timer.
//
// Deprecated: kept only because the frozen bench/serve.go calls it; it goes
// with that call in the next benchmark PR.
func WithMaxDelay(time.Duration) ServeOption {
	return func(*serveSettings) {}
}

// WithQueueDepth bounds a model's admission queue; requests beyond it are
// shed with ErrOverloaded (default 64).
func WithQueueDepth(n int) ServeOption {
	return func(s *serveSettings) { s.model.QueueDepth = n }
}

// Server is the multi-model inference serving front of the framework,
// layered on an Engine: each served model gets a bounded request queue
// with deadline-aware admission control and a dynamic batcher, and a
// worker pool shared fairly across hot models dispatches the coalesced
// batches onto pooled chips. Build one with NewServer, register models
// with ServeModel, submit with Infer, observe with Metrics, and drain
// gracefully with Close. A Server is safe for concurrent use.
type Server struct {
	engine   *Engine
	inner    *serve.Server
	defaults serveSettings
}

// NewServer starts a serving front end over an engine. Server-wide options
// (WithWorkers) apply here; model options passed here become defaults for
// every ServeModel call.
func NewServer(e *Engine, opts ...ServeOption) *Server {
	s := &Server{engine: e}
	for _, opt := range opts {
		opt(&s.defaults)
	}
	s.inner = serve.NewServer(s.defaults.workers)
	return s
}

// ServeModel compiles the named zoo model through the engine, with the
// engine's options (WithStrategy, WithSeed, …), reusing its cache and chip
// pool, and registers it for serving. Options override the server-wide
// defaults for this model only.
func (s *Server) ServeModel(name string, opts ...ServeOption) error {
	g, err := LookupModel(name)
	if err != nil {
		return err
	}
	return s.ServeGraph(name, g, opts...)
}

// ServeGraph registers a custom graph under a name, for models built with
// NewGraph rather than looked up from the zoo.
func (s *Server) ServeGraph(name string, g *Graph, opts ...ServeOption) error {
	if s.inner.Serves(name) {
		return fmt.Errorf("cimflow: model %q already served", name)
	}
	st := s.defaults
	for _, opt := range opts {
		opt(&st)
	}
	sess, err := s.engine.Session(g)
	if err != nil {
		return err
	}
	return s.inner.AddModel(name, sess.inner, st.model)
}

// Models lists the served model names, sorted.
func (s *Server) Models() []string { return s.inner.Models() }

// InputShape returns the input tensor shape a served model expects.
func (s *Server) InputShape(model string) (Shape, error) { return s.inner.InputShape(model) }

// Infer submits one request and blocks until it is served, shed or ctx
// expires. Admission is deadline-aware: an expired context fails
// immediately, a full queue sheds with ErrOverloaded, and a request whose
// deadline passes while queued is dropped at dispatch time. Served
// results are byte-identical to a direct Session.Infer with the same
// input.
func (s *Server) Infer(ctx context.Context, model string, input Tensor) (*Result, error) {
	return s.inner.Infer(ctx, model, input)
}

// Metrics snapshots the server: per-model queue depth, admission and
// completion counters, batch-size histogram, p50/p95/p99 request latency
// and queue wait, and the engine's compile-cache and chip-pool counters.
func (s *Server) Metrics() ServerMetrics {
	m := s.inner.Metrics()
	return ServerMetrics{
		Workers:      m.Workers,
		Models:       m.Models,
		CompileCalls: s.engine.CompileCalls(),
		CacheHits:    s.engine.CacheHits(),
		PooledChips:  s.engine.PooledChips(),
	}
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format — the same encoder the cluster router uses, so a scrape config
// covers both serving tiers with one job.
func (m ServerMetrics) WritePrometheus(w io.Writer) error {
	mw := cluster.NewMetricWriter(w)
	mw.Gauge("cimflow_serve_workers", "Dispatch worker-pool size.")
	mw.Sample("cimflow_serve_workers", nil, float64(m.Workers))
	mw.Counter("cimflow_serve_compile_calls_total", "Engine compile invocations.")
	mw.Sample("cimflow_serve_compile_calls_total", nil, float64(m.CompileCalls))
	mw.Counter("cimflow_serve_cache_hits_total", "Engine compile-cache hits.")
	mw.Sample("cimflow_serve_cache_hits_total", nil, float64(m.CacheHits))
	mw.Gauge("cimflow_serve_pooled_chips", "Simulated chips held across session pools.")
	mw.Sample("cimflow_serve_pooled_chips", nil, float64(m.PooledChips))

	names := make([]string, 0, len(m.Models))
	for name := range m.Models {
		names = append(names, name)
	}
	sort.Strings(names)

	mw.Gauge("cimflow_model_queue_depth", "Requests waiting in the model's admission queue.")
	for _, name := range names {
		mw.Sample("cimflow_model_queue_depth", cluster.Labels{{Name: "model", Value: name}}, float64(m.Models[name].QueueDepth))
	}
	mw.Counter("cimflow_model_requests_total", "Requests by model and outcome.")
	for _, name := range names {
		mm := m.Models[name]
		for _, oc := range []struct {
			outcome string
			v       int64
		}{
			{"accepted", mm.Accepted}, {"completed", mm.Completed},
			{"shed", mm.Shed}, {"expired", mm.Expired}, {"failed", mm.Failed},
		} {
			mw.Sample("cimflow_model_requests_total",
				cluster.Labels{{Name: "model", Value: name}, {Name: "outcome", Value: oc.outcome}}, float64(oc.v))
		}
	}
	mw.Counter("cimflow_model_batches_total", "Coalesced batch dispatches by model.")
	for _, name := range names {
		mw.Sample("cimflow_model_batches_total", cluster.Labels{{Name: "model", Value: name}}, float64(m.Models[name].Batches))
	}
	quantiles := func(metric, help string, of func(ModelMetrics) [3]float64) {
		mw.Gauge(metric, help)
		for _, name := range names {
			v := of(m.Models[name])
			for i, q := range [3]string{"0.5", "0.95", "0.99"} {
				mw.Sample(metric, cluster.Labels{{Name: "model", Value: name}, {Name: "quantile", Value: q}}, v[i])
			}
		}
	}
	quantiles("cimflow_model_latency_ms", "Request latency (admission to reply) quantiles by model, milliseconds.",
		func(mm ModelMetrics) [3]float64 { return [3]float64{mm.P50Ms, mm.P95Ms, mm.P99Ms} })
	quantiles("cimflow_model_queue_wait_ms", "Queue wait (admission to dispatch) quantiles by model, milliseconds.",
		func(mm ModelMetrics) [3]float64 {
			return [3]float64{mm.QueueWaitP50Ms, mm.QueueWaitP95Ms, mm.QueueWaitP99Ms}
		})
	mw.Gauge("cimflow_model_sim_lanes", "Configured lane-batch capacity by model.")
	for _, name := range names {
		mw.Sample("cimflow_model_sim_lanes", cluster.Labels{{Name: "model", Value: name}}, float64(m.Models[name].SimLanes))
	}
	mw.Counter("cimflow_model_lane_runs_total", "Chip runs by model and lane occupancy.")
	for _, name := range names {
		mm := m.Models[name]
		lanes := make([]int, 0, len(mm.LaneOccupancy))
		for b := range mm.LaneOccupancy {
			lanes = append(lanes, b)
		}
		sort.Ints(lanes)
		for _, b := range lanes {
			mw.Sample("cimflow_model_lane_runs_total",
				cluster.Labels{{Name: "model", Value: name}, {Name: "lanes", Value: strconv.Itoa(b)}}, float64(mm.LaneOccupancy[b]))
		}
	}
	mw.Counter("cimflow_model_lane_fallbacks_total", "Lanes that diverged during lane-batched runs and re-ran serially.")
	for _, name := range names {
		mw.Sample("cimflow_model_lane_fallbacks_total", cluster.Labels{{Name: "model", Value: name}}, float64(m.Models[name].LaneFallbacks))
	}
	return mw.Err()
}

// Close stops admission, serves every queued request, and stops the
// workers. It leaves the engine (and its sessions) open so the caller can
// keep using them or shut them down with Engine.Close.
func (s *Server) Close() error { return s.inner.Close() }
