package cluster

// BackendMetrics is one replica's router-side snapshot.
type BackendMetrics struct {
	Inflight   int64
	Placements int64
}

// TenantMetrics is what the benchmark's serve_tiny reads of a tenant.
type TenantMetrics struct {
	RejectedQuota int64
}

// Metrics is a point-in-time snapshot of the router.
type Metrics struct {
	Backends map[string]BackendMetrics
	// Tenants is always empty: the router has no tenants. The field stays
	// for the benchmark's serve_tiny, which sums its quota rejections.
	Tenants map[string]TenantMetrics
	// Hedging and placement counters.
	HedgesLaunched int64
	HedgesWon      int64
	Retries        int64
	Fallbacks      int64 // least-loaded reroutes off a saturated hash owner
}

// Metrics snapshots every backend's load and placement counters and the
// router's hedging counters.
func (r *Router) Metrics() Metrics {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := Metrics{
		Backends:       make(map[string]BackendMetrics, len(r.backends)),
		HedgesLaunched: r.m.hedgesLaunched.Load(),
		HedgesWon:      r.m.hedgesWon.Load(),
		Retries:        r.m.retries.Load(),
		Fallbacks:      r.m.fallbacks.Load(),
	}
	for name, bs := range r.backends {
		out.Backends[name] = BackendMetrics{
			Inflight:   bs.inflight.Load(),
			Placements: bs.placements.Load(),
		}
	}
	return out
}
