package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyWindow is how many recent request latencies (and queue waits) each
// model keeps for quantile estimation.
const latencyWindow = 1024

// LatencyWindow is a ring of the most recent latencies of one stream, for
// quantile estimation. It is safe for concurrent use, and Observe does not
// allocate: it runs once per served request.
type LatencyWindow struct {
	mu   sync.Mutex
	ring []time.Duration
	n    int // samples written (the ring wraps at len(ring))
}

// NewLatencyWindow returns a window over the last size samples.
func NewLatencyWindow(size int) *LatencyWindow {
	return &LatencyWindow{ring: make([]time.Duration, size)}
}

// Observe records one latency, overwriting the oldest once the ring is full.
func (w *LatencyWindow) Observe(d time.Duration) {
	w.mu.Lock()
	w.ring[w.n%len(w.ring)] = d
	w.n++
	w.mu.Unlock()
}

// Quantiles reports how many samples the window holds and their p50, p95
// and p99 in milliseconds.
func (w *LatencyWindow) Quantiles() (n int, p50, p95, p99 float64) {
	w.mu.Lock()
	samples := append([]time.Duration(nil), w.ring[:min(w.n, len(w.ring))]...)
	w.mu.Unlock()
	p50, p95, p99 = Quantiles(samples)
	return len(samples), p50, p95, p99
}

// Quantiles sorts samples in place and returns their p50, p95 and p99 in
// milliseconds (zeros for no samples): the sample at rank p*(n-1), rounded
// down, with no interpolation.
func Quantiles(samples []time.Duration) (p50, p95, p99 float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	q := func(p float64) float64 {
		return float64(samples[int(p*float64(n-1))]) / float64(time.Millisecond)
	}
	return q(0.50), q(0.95), q(0.99)
}

// modelStats accumulates one model's serving counters. Counters are
// atomic; the batch histogram takes a small mutex (it is touched once per
// batch, never per simulated cycle).
type modelStats struct {
	accepted  atomic.Int64
	shed      atomic.Int64
	expired   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	mu        sync.Mutex
	batches   int64
	batchHist []int64 // index = batch size after expiry shedding

	lat  *LatencyWindow // admission to reply
	wait *LatencyWindow // admission to dispatch: queue wait plus batch fill
}

func (m *modelStats) observeBatch(size int) {
	m.mu.Lock()
	m.batches++
	if size < len(m.batchHist) {
		m.batchHist[size]++
	}
	m.mu.Unlock()
}

// ModelMetrics is the serializable snapshot of one served model.
type ModelMetrics struct {
	// Queue state.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	MaxBatch   int `json:"max_batch"`
	// Admission and completion counters.
	Accepted  int64 `json:"accepted"`
	Shed      int64 `json:"shed"`    // rejected at admission (queue full)
	Expired   int64 `json:"expired"` // deadline passed while queued
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Dynamic batching: dispatches and histogram of dispatched batch sizes.
	Batches   int64         `json:"batches"`
	BatchHist map[int]int64 `json:"batch_size_histogram"`
	// Request latency (admission to reply) over the last samples.
	LatencySamples int     `json:"latency_samples"`
	P50Ms          float64 `json:"latency_p50_ms"`
	P95Ms          float64 `json:"latency_p95_ms"`
	P99Ms          float64 `json:"latency_p99_ms"`
	// The share of that latency spent before dispatch (admission queue plus
	// batch fill), over the same window: near zero while a worker is idle,
	// growing only when every worker is busy.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP95Ms float64 `json:"queue_wait_p95_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	// Chip pool state: idle chips last staged for this model's session, and
	// the bound on live chips of the pool it shares with the engine's other
	// sessions.
	PooledChips int `json:"pooled_chips"`
	PoolCap     int `json:"pool_cap"`
	// Lane batching: the session's lane capacity, a histogram of chip
	// runs by lane occupancy, and how many lanes diverged and fell back
	// to the serial path.
	SimLanes      int           `json:"sim_lanes"`
	LaneOccupancy map[int]int64 `json:"lane_occupancy_histogram"`
	LaneFallbacks int64         `json:"lane_fallbacks"`
}

// Metrics is a point-in-time snapshot of the whole server.
type Metrics struct {
	Workers int                     `json:"workers"`
	Models  map[string]ModelMetrics `json:"models"`
}

// Metrics snapshots every served model's counters, batch histogram and
// latency quantiles.
func (s *Server) Metrics() Metrics {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := Metrics{Workers: s.workers, Models: make(map[string]ModelMetrics, len(s.models))}
	for name, q := range s.models {
		out.Models[name] = q.snapshot()
	}
	return out
}

func (q *modelQueue) snapshot() ModelMetrics {
	mm := ModelMetrics{
		QueueDepth:    len(q.reqs),
		QueueCap:      cap(q.reqs),
		MaxBatch:      q.cfg.MaxBatch,
		Accepted:      q.m.accepted.Load(),
		Shed:          q.m.shed.Load(),
		Expired:       q.m.expired.Load(),
		Completed:     q.m.completed.Load(),
		Failed:        q.m.failed.Load(),
		PooledChips:   q.sess.PooledChips(),
		PoolCap:       q.sess.PoolCap(),
		SimLanes:      q.sess.SimLanes(),
		LaneFallbacks: q.sess.LaneFallbacks(),
	}
	mm.LaneOccupancy = make(map[int]int64)
	for b, n := range q.sess.LaneOccupancy() {
		if n > 0 {
			mm.LaneOccupancy[b] = n
		}
	}
	q.m.mu.Lock()
	mm.Batches = q.m.batches
	mm.BatchHist = make(map[int]int64)
	for size, n := range q.m.batchHist {
		if n > 0 {
			mm.BatchHist[size] = n
		}
	}
	q.m.mu.Unlock()
	mm.LatencySamples, mm.P50Ms, mm.P95Ms, mm.P99Ms = q.m.lat.Quantiles()
	_, mm.QueueWaitP50Ms, mm.QueueWaitP95Ms, mm.QueueWaitP99Ms = q.m.wait.Quantiles()
	return mm
}
