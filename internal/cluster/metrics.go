package cluster

import (
	"io"
	"sort"
	"strconv"
	"sync/atomic"

	"cimflow/internal/serve"
)

// tenantLatencyWindow is how many recent request latencies each tenant
// keeps for quantile estimation.
const tenantLatencyWindow = 2048

// tenantStats accumulates one tenant's routing counters.
type tenantStats struct {
	sent              atomic.Int64
	completed         atomic.Int64
	rejectedQuota     atomic.Int64
	rejectedPriority  atomic.Int64
	rejectedNoBackend atomic.Int64
	expired           atomic.Int64
	failed            atomic.Int64

	lat *serve.LatencyWindow
}

// BackendMetrics is one replica's router-side snapshot.
type BackendMetrics struct {
	Healthy    bool  `json:"healthy"`
	Inflight   int64 `json:"inflight"`
	Placements int64 `json:"placements"`
	Hedged     int64 `json:"hedged"` // attempts placed here as hedges
	Ejections  int64 `json:"ejections"`
}

// TenantMetrics is one tenant's admission and SLO snapshot.
type TenantMetrics struct {
	Priority string `json:"priority"`
	// Admission counters. Sent counts every Infer; Completed only requests
	// that returned a result within their context deadline.
	Sent              int64 `json:"sent"`
	Completed         int64 `json:"completed"`
	RejectedQuota     int64 `json:"rejected_quota"`
	RejectedPriority  int64 `json:"rejected_priority"`
	RejectedNoBackend int64 `json:"rejected_no_backend"`
	Expired           int64 `json:"expired"`
	Failed            int64 `json:"failed"`
	// Request latency quantiles over the last samples.
	LatencySamples int     `json:"latency_samples"`
	P50Ms          float64 `json:"latency_p50_ms"`
	P95Ms          float64 `json:"latency_p95_ms"`
	P99Ms          float64 `json:"latency_p99_ms"`
	// Attainment is Completed/Sent: the fraction of offered requests that
	// came back in time — the per-tenant SLO number.
	Attainment float64 `json:"attainment"`
}

// Metrics is a point-in-time snapshot of the router.
type Metrics struct {
	Backends map[string]BackendMetrics `json:"backends"`
	Tenants  map[string]TenantMetrics  `json:"tenants"`
	// Hedging and placement counters.
	HedgesLaunched int64 `json:"hedges_launched"`
	HedgesWon      int64 `json:"hedges_won"`
	Retries        int64 `json:"retries"`
	Fallbacks      int64 `json:"fallbacks"` // least-loaded reroutes off a saturated hash owner
}

// Metrics snapshots every backend's health/load/placement state and every
// tenant's admission counters and latency quantiles.
func (r *Router) Metrics() Metrics {
	r.mu.RLock()
	backends := make(map[string]*backendState, len(r.backends))
	for name, bs := range r.backends {
		backends[name] = bs
	}
	tenants := make(map[string]*tenantState, len(r.tenants))
	for name, ts := range r.tenants {
		tenants[name] = ts
	}
	r.mu.RUnlock()

	out := Metrics{
		Backends:       make(map[string]BackendMetrics, len(backends)),
		Tenants:        make(map[string]TenantMetrics, len(tenants)),
		HedgesLaunched: r.m.hedgesLaunched.Load(),
		HedgesWon:      r.m.hedgesWon.Load(),
		Retries:        r.m.retries.Load(),
		Fallbacks:      r.m.fallbacks.Load(),
	}
	for name, bs := range backends {
		out.Backends[name] = BackendMetrics{
			Healthy:    bs.healthy.Load(),
			Inflight:   bs.inflight.Load(),
			Placements: bs.placements.Load(),
			Hedged:     bs.hedged.Load(),
			Ejections:  bs.ejections.Load(),
		}
	}
	for name, ts := range tenants {
		out.Tenants[name] = ts.snapshot()
	}
	return out
}

func (ts *tenantState) snapshot() TenantMetrics {
	tm := TenantMetrics{
		Priority:          ts.cfg.Priority.String(),
		Sent:              ts.m.sent.Load(),
		Completed:         ts.m.completed.Load(),
		RejectedQuota:     ts.m.rejectedQuota.Load(),
		RejectedPriority:  ts.m.rejectedPriority.Load(),
		RejectedNoBackend: ts.m.rejectedNoBackend.Load(),
		Expired:           ts.m.expired.Load(),
		Failed:            ts.m.failed.Load(),
	}
	tm.LatencySamples, tm.P50Ms, tm.P95Ms, tm.P99Ms = ts.m.lat.Quantiles()
	if tm.Sent > 0 {
		tm.Attainment = float64(tm.Completed) / float64(tm.Sent)
	}
	return tm
}

// WritePrometheus renders the router snapshot in Prometheus text
// exposition format — placement, hedging, shed/quota rejections, backend
// health and per-tenant latency quantiles vs deadline.
func (r *Router) WritePrometheus(w io.Writer) error {
	return r.Metrics().WritePrometheus(w)
}

// WritePrometheus renders an already-taken snapshot.
func (m Metrics) WritePrometheus(w io.Writer) error {
	mw := NewMetricWriter(w)

	mw.Counter("cimflow_router_hedges_launched_total", "Hedge attempts launched after the hedge delay.")
	mw.Sample("cimflow_router_hedges_launched_total", nil, float64(m.HedgesLaunched))
	mw.Counter("cimflow_router_hedges_won_total", "Requests whose hedge attempt replied first.")
	mw.Sample("cimflow_router_hedges_won_total", nil, float64(m.HedgesWon))
	mw.Counter("cimflow_router_retries_total", "Failover retries after a shed or unreachable backend.")
	mw.Sample("cimflow_router_retries_total", nil, float64(m.Retries))
	mw.Counter("cimflow_router_fallbacks_total", "Placements rerouted off a saturated hash owner to the least-loaded replica.")
	mw.Sample("cimflow_router_fallbacks_total", nil, float64(m.Fallbacks))

	backends := sortedKeys(m.Backends)
	mw.Gauge("cimflow_router_backend_healthy", "1 if the backend is in placement, 0 if ejected.")
	for _, name := range backends {
		mw.Sample("cimflow_router_backend_healthy", Labels{{"backend", name}}, b2f(m.Backends[name].Healthy))
	}
	mw.Gauge("cimflow_router_backend_inflight", "Requests currently in flight on the backend.")
	for _, name := range backends {
		mw.Sample("cimflow_router_backend_inflight", Labels{{"backend", name}}, float64(m.Backends[name].Inflight))
	}
	mw.Counter("cimflow_router_backend_placements_total", "Attempts (primary, retry and hedge) placed on the backend.")
	for _, name := range backends {
		mw.Sample("cimflow_router_backend_placements_total", Labels{{"backend", name}}, float64(m.Backends[name].Placements))
	}
	mw.Counter("cimflow_router_backend_hedged_total", "Hedge attempts placed on the backend.")
	for _, name := range backends {
		mw.Sample("cimflow_router_backend_hedged_total", Labels{{"backend", name}}, float64(m.Backends[name].Hedged))
	}
	mw.Counter("cimflow_router_backend_ejections_total", "Times the backend was ejected after consecutive failed health checks.")
	for _, name := range backends {
		mw.Sample("cimflow_router_backend_ejections_total", Labels{{"backend", name}}, float64(m.Backends[name].Ejections))
	}

	tenants := sortedKeys(m.Tenants)
	mw.Counter("cimflow_tenant_requests_total", "Requests by tenant and outcome.")
	for _, name := range tenants {
		tm := m.Tenants[name]
		for _, oc := range []struct {
			outcome string
			n       int64
		}{
			{"completed", tm.Completed},
			{"rejected_quota", tm.RejectedQuota},
			{"rejected_priority", tm.RejectedPriority},
			{"rejected_no_backend", tm.RejectedNoBackend},
			{"expired", tm.Expired},
			{"failed", tm.Failed},
		} {
			mw.Sample("cimflow_tenant_requests_total",
				Labels{{"tenant", name}, {"outcome", oc.outcome}}, float64(oc.n))
		}
	}
	mw.Gauge("cimflow_tenant_latency_ms", "Request latency quantiles by tenant over the recent window.")
	for _, name := range tenants {
		tm := m.Tenants[name]
		for _, qv := range []struct {
			q string
			v float64
		}{{"0.5", tm.P50Ms}, {"0.95", tm.P95Ms}, {"0.99", tm.P99Ms}} {
			mw.Sample("cimflow_tenant_latency_ms",
				Labels{{"tenant", name}, {"quantile", qv.q}}, qv.v)
		}
	}
	mw.Gauge("cimflow_tenant_slo_attainment", "Fraction of the tenant's offered requests completed within deadline.")
	for _, name := range tenants {
		mw.Sample("cimflow_tenant_slo_attainment", Labels{{"tenant", name}}, m.Tenants[name].Attainment)
	}
	return mw.Err()
}

// sortedKeys returns a map's keys sorted, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
