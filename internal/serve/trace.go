package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"cimflow/internal/model"
	"cimflow/internal/report"
)

// TraceTenant is one traffic class of a replayed trace: its share of the
// arrivals and its SLO, the per-request context deadline every request
// carries.
type TraceTenant struct {
	Name string
	// Weight is the tenant's share of arrivals (relative to the others).
	Weight float64
	// Deadline is the per-request context deadline, counted from the time
	// the request was due — the SLO target p99 is judged against (default
	// 1s).
	Deadline time.Duration
}

// Burst is a transient rate spike overlaid on the base trace.
type Burst struct {
	// At is the burst's start offset into the trace.
	At time.Duration
	// Duration is how long the spike lasts.
	Duration time.Duration
	// Multiplier scales the instantaneous rate while the burst is active
	// (2 doubles it).
	Multiplier float64
}

// TraceSpec describes production-shaped traffic for Replay: a base rate
// modulated by a diurnal sinusoid and bursts, a model mix with hot-model
// skew, and a tenant mix with per-tenant deadlines.
type TraceSpec struct {
	// Duration is how long to offer load.
	Duration time.Duration
	// RPS is the base offered arrival rate, requests/second.
	RPS float64
	// DiurnalAmplitude in [0,1) modulates the rate sinusoidally:
	// rate(t) = RPS * (1 + A*sin(2*pi*t/Period)). One full period over the
	// trace compresses a day's ramp into the run.
	DiurnalAmplitude float64
	// DiurnalPeriod is the sinusoid's period (default: Duration).
	DiurnalPeriod time.Duration
	// Bursts are transient spikes on top of the diurnal curve.
	Bursts []Burst
	// Models is the mix of requested models (at least one).
	Models []string
	// ModelSkew is the Zipf exponent of the model mix: the i-th model's
	// share is proportional to 1/(i+1)^ModelSkew, so the first model is
	// hot. 0 = uniform.
	ModelSkew float64
	// Tenants is the tenant mix (default: one "default" tenant, weight 1,
	// deadline 1s).
	Tenants []TraceTenant
	// Seed drives the deterministic arrival sequence (tenant, model and
	// input choices).
	Seed uint64
}

// rate returns the offered rate at offset t.
func (s *TraceSpec) rate(t time.Duration) float64 {
	period := s.DiurnalPeriod
	if period <= 0 {
		period = s.Duration
	}
	r := s.RPS
	if s.DiurnalAmplitude != 0 && period > 0 {
		r *= 1 + s.DiurnalAmplitude*math.Sin(2*math.Pi*t.Seconds()/period.Seconds())
	}
	for _, b := range s.Bursts {
		if b.Multiplier > 0 && t >= b.At && t < b.At+b.Duration {
			r *= b.Multiplier
		}
	}
	return r
}

// TenantSLO is one tenant's replay outcome: outcome counters, latency
// quantiles over every request (not a window), and SLO attainment — the
// fraction of offered requests that completed within the tenant's
// deadline.
type TenantSLO struct {
	Tenant     string  `json:"tenant"`
	DeadlineMs float64 `json:"deadline_ms"`
	Sent       int64   `json:"sent"`
	Completed  int64   `json:"completed"`
	Shed       int64   `json:"shed"`
	Expired    int64   `json:"expired"`
	Failed     int64   `json:"failed"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Attainment float64 `json:"attainment"`
}

// ReplayReport is the outcome of one trace replay.
type ReplayReport struct {
	Elapsed    time.Duration `json:"elapsed"`
	Sent       int64         `json:"sent"`
	Completed  int64         `json:"completed"`
	Throughput float64       `json:"throughput"` // completed/s wall-clock
	// LagP99Ms is the p99 of how late arrivals left the generator: a
	// generator that fell behind its schedule shows here, and its lag is
	// already inside every latency quantile.
	LagP99Ms float64     `json:"lag_p99_ms"`
	Tenants  []TenantSLO `json:"tenants"` // sorted by tenant name
}

// tenantAcc accumulates one tenant's replay outcomes.
type tenantAcc struct {
	deadline time.Duration
	mu       sync.Mutex
	sent     int64
	ok       int64
	shed     int64
	expired  int64
	failed   int64
	lat      []time.Duration
}

// clock is the replay's time source; tests substitute a fake one to check
// the schedule arithmetic.
type clock interface {
	Now() time.Time
	// Wait blocks for d or until ctx is done, and returns ctx's error in
	// the latter case.
	Wait(ctx context.Context, d time.Duration) error
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Wait(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// schedule offers the spec's arrivals open loop from the calling
// goroutine: the next arrival is 1/rate(t) after the current one, and
// arrival i is due at start + its offset whether or not earlier ones
// completed. A generator that falls behind sends the backlog at once
// rather than skipping it. send gets each arrival's due time and must not
// block. Cancelling ctx stops new arrivals. It returns the start and how
// late each arrival left.
func (s *TraceSpec) schedule(ctx context.Context, clk clock, send func(due time.Time)) (time.Time, []time.Duration) {
	start := clk.Now()
	var lags []time.Duration
	for t := time.Duration(0); t < s.Duration && ctx.Err() == nil; {
		rate := s.rate(t)
		if rate <= 0 {
			t += time.Millisecond
			continue
		}
		t += time.Duration(float64(time.Second) / rate)
		due := start.Add(t)
		if wait := due.Sub(clk.Now()); wait > 0 {
			if clk.Wait(ctx, wait) != nil {
				break
			}
		}
		lags = append(lags, clk.Now().Sub(due))
		send(due)
	}
	return start, lags
}

// Replay drives the server with the spec's traffic, open loop: arrivals
// fire at the trace's instantaneous rate regardless of completions, each
// under its tenant's deadline. A request's latency and deadline run from
// the time it was due, not from when it left, so a generator that falls
// behind charges its stall to the requests it delays. It returns per-tenant
// SLO attainment. Cancelling ctx stops offering load early; in-flight
// requests still drain into the report.
func Replay(ctx context.Context, s *Server, spec TraceSpec) (*ReplayReport, error) {
	return replay(ctx, wallClock{}, s, spec)
}

func replay(ctx context.Context, clk clock, s *Server, spec TraceSpec) (*ReplayReport, error) {
	if spec.Duration <= 0 {
		return nil, fmt.Errorf("serve: trace duration must be positive")
	}
	if spec.RPS <= 0 {
		return nil, fmt.Errorf("serve: trace rps must be positive")
	}
	if len(spec.Models) == 0 {
		return nil, fmt.Errorf("serve: trace needs at least one model")
	}
	tenants := slices.Clone(spec.Tenants)
	if len(tenants) == 0 {
		tenants = []TraceTenant{{Name: "default", Weight: 1}}
	}
	accs := make(map[string]*tenantAcc, len(tenants))
	tenantWeights := make([]float64, len(tenants))
	var tenantTotal float64
	for i, tt := range tenants {
		if _, dup := accs[tt.Name]; dup {
			return nil, fmt.Errorf("serve: trace tenant %q named twice", tt.Name)
		}
		if tt.Weight <= 0 {
			tt.Weight = 1
		}
		if tt.Deadline <= 0 {
			tt.Deadline = time.Second
		}
		tenants[i] = tt
		tenantTotal += tt.Weight
		tenantWeights[i] = tenantTotal
		accs[tt.Name] = &tenantAcc{deadline: tt.Deadline}
	}
	// Zipf-skewed model mix: share of model i proportional to 1/(i+1)^skew.
	modelWeights := make([]float64, len(spec.Models))
	var modelTotal float64
	for i := range spec.Models {
		w := 1.0
		if spec.ModelSkew > 0 {
			w = 1 / math.Pow(float64(i+1), spec.ModelSkew)
		}
		modelTotal += w
		modelWeights[i] = modelTotal
	}
	shapes := make(map[string]model.Shape, len(spec.Models))
	for _, m := range spec.Models {
		shape, err := s.InputShape(m)
		if err != nil {
			return nil, fmt.Errorf("serve: trace model %q: %w", m, err)
		}
		shapes[m] = shape
	}

	pick := func(rng *rand.Rand, cum []float64, total float64) int {
		x := rng.Float64() * total
		for i, c := range cum {
			if x < c {
				return i
			}
		}
		return len(cum) - 1
	}

	rng := rand.New(rand.NewSource(int64(spec.Seed)))
	var wg sync.WaitGroup
	var seq uint64
	start, lags := spec.schedule(ctx, clk, func(due time.Time) {
		tt := tenants[pick(rng, tenantWeights, tenantTotal)]
		mdl := spec.Models[pick(rng, modelWeights, modelTotal)]
		inputSeed := seq % 1024
		seq++
		acc := accs[tt.Name]
		acc.mu.Lock()
		acc.sent++
		acc.mu.Unlock()
		timeout := acc.deadline - clk.Now().Sub(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			_, err := s.Infer(rctx, mdl, model.SeededInput(shapes[mdl], inputSeed))
			lat := clk.Now().Sub(due)
			acc.mu.Lock()
			defer acc.mu.Unlock()
			switch {
			case err == nil:
				acc.ok++
				acc.lat = append(acc.lat, lat)
			case errors.Is(err, ErrOverloaded):
				acc.shed++
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				acc.expired++
			default:
				acc.failed++
			}
		}()
	})
	wg.Wait()
	elapsed := clk.Now().Sub(start)

	rep := &ReplayReport{Elapsed: elapsed}
	_, _, rep.LagP99Ms = Quantiles(lags)
	for _, tt := range tenants {
		acc := accs[tt.Name]
		slo := TenantSLO{
			Tenant:     tt.Name,
			DeadlineMs: float64(acc.deadline) / float64(time.Millisecond),
			Sent:       acc.sent,
			Completed:  acc.ok,
			Shed:       acc.shed,
			Expired:    acc.expired,
			Failed:     acc.failed,
		}
		slo.P50Ms, slo.P95Ms, slo.P99Ms = Quantiles(acc.lat)
		if acc.sent > 0 {
			slo.Attainment = float64(acc.ok) / float64(acc.sent)
		}
		rep.Sent += acc.sent
		rep.Completed += acc.ok
		rep.Tenants = append(rep.Tenants, slo)
	}
	sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant })
	if elapsed > 0 {
		rep.Throughput = float64(rep.Completed) / elapsed.Seconds()
	}
	return rep, nil
}

// Table renders the per-tenant SLO attainment report.
func (rep *ReplayReport) Table(title string) *report.Table {
	t := report.New(title,
		"tenant", "deadline ms", "sent", "done", "shed", "expired", "failed",
		"p50 ms", "p95 ms", "p99 ms", "attainment")
	for _, slo := range rep.Tenants {
		t.Add(slo.Tenant, slo.DeadlineMs, slo.Sent, slo.Completed, slo.Shed,
			slo.Expired, slo.Failed, slo.P50Ms, slo.P95Ms, slo.P99Ms, slo.Attainment)
	}
	return t
}
