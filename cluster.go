package cimflow

import (
	"context"
	"time"

	"cimflow/internal/cluster"
	"cimflow/internal/httpapi"
)

// Cluster serving: a Router fronts N replica backends — each an
// independent Server, in-process or remote over HTTP — and places
// requests by consistent hashing on the model name with a least-loaded
// fallback, enforces per-tenant priority classes and token-bucket
// quotas, hedges slow or shed requests against successor replicas under
// a shared budget, and ejects unhealthy backends until they pass checks
// again. Because replicas are deterministic (same seed, same strategy),
// routed results are byte-identical to a direct Session.Infer no matter
// which replica — or hedge attempt — wins.

type (
	// Router is the cluster front end: placement, quotas, hedging,
	// health, and per-tenant metrics over a set of replica backends.
	Router = cluster.Router
	// RouterOption configures a Router at construction.
	RouterOption = cluster.Option
	// ClusterBackend is one replica the router can place requests on.
	ClusterBackend = cluster.Backend
	// TenantConfig declares a tenant's priority class and token-bucket
	// quota.
	TenantConfig = cluster.TenantConfig
	// Priority is a tenant's scheduling class; see PriorityBatch,
	// PriorityStandard, PriorityInteractive.
	Priority = cluster.Priority
	// RouterMetrics is a point-in-time snapshot of the router: backend
	// health and placement counters, hedging totals, and per-tenant
	// latency quantiles vs deadline.
	RouterMetrics = cluster.Metrics
	// TenantMetrics is one tenant's slice of RouterMetrics.
	TenantMetrics = cluster.TenantMetrics
	// BackendMetrics is one backend's slice of RouterMetrics.
	BackendMetrics = cluster.BackendMetrics
	// TraceSpec shapes a synthetic trace replay: diurnal ramps, bursts,
	// hot-model skew, and a weighted per-tenant mix with deadlines.
	TraceSpec = cluster.TraceSpec
	// TraceTenant is one tenant's share of a trace and its deadline SLO.
	TraceTenant = cluster.TraceTenant
	// Burst is a bounded rate spike inside a trace.
	Burst = cluster.Burst
	// ReplayReport is a finished replay: per-tenant SLO attainment and
	// latency quantiles, the generator's lag, and the router's own counters.
	ReplayReport = cluster.ReplayReport
	// TenantSLO is one tenant's replay outcome.
	TenantSLO = cluster.TenantSLO
)

// Priority classes, lowest to highest. Batch traffic is shed first under
// fleet-wide load and never hedges; interactive traffic hedges first.
const (
	PriorityBatch       = cluster.PriorityBatch
	PriorityStandard    = cluster.PriorityStandard
	PriorityInteractive = cluster.PriorityInteractive
)

// Cluster routing errors.
var (
	// ErrNoBackends reports a request with no healthy replica to serve it.
	ErrNoBackends = cluster.ErrNoBackends
	// ErrQuotaExceeded reports a request rejected by its tenant's
	// token-bucket quota.
	ErrQuotaExceeded = cluster.ErrQuotaExceeded
	// ErrRouterClosed reports a request submitted after Router.Close.
	ErrRouterClosed = cluster.ErrRouterClosed
	// ErrBackendUnavailable reports a transport-level backend failure;
	// the router retries these on successor replicas.
	ErrBackendUnavailable = cluster.ErrBackendUnavailable
)

// Router construction options, re-exported from internal/cluster.
var (
	WithVirtualNodes          = cluster.WithVirtualNodes
	WithHedgeDelay            = cluster.WithHedgeDelay
	WithHedgeBudget           = cluster.WithHedgeBudget
	WithBackendConcurrency    = cluster.WithBackendConcurrency
	WithCheckInterval         = cluster.WithCheckInterval
	WithEjectAfter            = cluster.WithEjectAfter
	WithReadmitAfter          = cluster.WithReadmitAfter
	WithPriorityShedThreshold = cluster.WithPriorityShedThreshold
	WithTenant                = cluster.WithTenant
)

// NewRouter builds a cluster router. Register replicas with AddBackend,
// submit with Infer, observe with Metrics or WritePrometheus, and stop
// with Close.
func NewRouter(opts ...RouterOption) *Router { return cluster.New(opts...) }

// NewLocalBackend wraps a Server as an in-process replica backend.
func NewLocalBackend(name string, s *Server) ClusterBackend {
	return cluster.NewLocalBackend(name, s.inner)
}

// NewHTTPBackend connects a remote cimflow-serve instance (by base URL,
// e.g. "http://host:8080") as a replica backend.
func NewHTTPBackend(base string) (ClusterBackend, error) {
	return httpapi.NewClient(base)
}

// DelayedBackend wraps a backend with a fixed added latency on every
// inference — fault injection for demonstrating hedged retries.
func DelayedBackend(b ClusterBackend, d time.Duration) ClusterBackend {
	return cluster.Delayed(b, d)
}

// ReplayTrace replays a synthetic trace against the router open-loop
// and reports per-tenant SLO attainment; latency is measured from each
// request's due time.
func ReplayTrace(ctx context.Context, r *Router, spec TraceSpec) (*ReplayReport, error) {
	return cluster.Replay(ctx, r, spec)
}

// ParsePriority parses "batch", "standard" or "interactive".
func ParsePriority(s string) (Priority, bool) { return cluster.ParsePriority(s) }
