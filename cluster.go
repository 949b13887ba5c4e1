package cimflow

import "cimflow/internal/cluster"

// A Router fronts in-process replica Servers: it places requests by
// consistent hashing on the model name with a least-loaded fallback,
// hedges slow or shed requests against successor replicas under a shared
// budget, and skips a replica whose Server is closed. Because replicas are
// deterministic (same seed, same strategy), routed results are
// byte-identical to a direct Session.Infer no matter which replica — or
// hedge attempt — wins. The router is what the benchmark's serve_tiny
// workload measures; nothing else in the framework uses it.

type (
	// Router is the cluster front end over a set of replica backends.
	Router = cluster.Router
	// ClusterBackend is one replica the router can place requests on.
	ClusterBackend = cluster.Backend
	// RouterMetrics is a point-in-time snapshot of the router: per-backend
	// placement counters and hedging totals. Its Tenants map is always
	// empty; it stays for the benchmark, which reads it.
	RouterMetrics = cluster.Metrics
)

// Cluster routing errors.
var (
	// ErrNoBackends reports a request with no open replica to serve it.
	ErrNoBackends = cluster.ErrNoBackends
	// ErrRouterClosed reports a request submitted after Router.Close.
	ErrRouterClosed = cluster.ErrRouterClosed
)

// NewRouter builds a cluster router. Register replicas with AddBackend,
// submit with Infer (its tenant argument is ignored), observe with
// Metrics, and stop with Close.
func NewRouter() *Router { return cluster.New() }

// NewLocalBackend wraps a Server as an in-process replica backend.
func NewLocalBackend(name string, s *Server) ClusterBackend {
	return cluster.NewLocalBackend(name, s.inner)
}
