package cluster

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestTraceRateShaping(t *testing.T) {
	spec := TraceSpec{
		Duration:         10 * time.Second,
		RPS:              100,
		DiurnalAmplitude: 0.5,
		Bursts:           []Burst{{At: 2 * time.Second, Duration: time.Second, Multiplier: 3}},
	}
	if got := spec.rate(0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("rate(0) = %g, want 100 (sin(0) = 0)", got)
	}
	// Quarter period: sin = 1, so rate = RPS * 1.5.
	if got := spec.rate(2500 * time.Millisecond); math.Abs(got-100*1.5*3) > 1e-9 {
		t.Fatalf("rate(2.5s) = %g, want 450 (diurnal peak x burst)", got)
	}
	// Three-quarter period: sin = -1, rate = RPS * 0.5.
	if got := spec.rate(7500 * time.Millisecond); math.Abs(got-50) > 1e-9 {
		t.Fatalf("rate(7.5s) = %g, want 50 (diurnal trough)", got)
	}
}

func TestReplayAgainstFakeCluster(t *testing.T) {
	r := testRouter(t)
	for _, name := range []string{"replica-a", "replica-b", "replica-c"} {
		if err := r.AddBackend(newFake(name, "hot", "cold")); err != nil {
			t.Fatal(err)
		}
	}
	spec := TraceSpec{
		Duration:         300 * time.Millisecond,
		RPS:              400,
		DiurnalAmplitude: 0.3,
		Bursts:           []Burst{{At: 100 * time.Millisecond, Duration: 50 * time.Millisecond, Multiplier: 2}},
		Models:           []string{"hot", "cold"},
		ModelSkew:        1.2,
		Tenants: []TraceTenant{
			{Name: "gold", Deadline: 500 * time.Millisecond}, // weight defaults to 1
			{Name: "free", Weight: 3, Deadline: 250 * time.Millisecond},
		},
		Seed: 7,
	}
	want := spec
	want.Tenants = slices.Clone(spec.Tenants)
	rep, err := Replay(context.Background(), r, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("replay changed the caller's spec: %+v, want %+v", spec, want)
	}
	if rep.Sent < 50 {
		t.Fatalf("sent = %d, want a few dozen arrivals over 300ms at ~400 rps", rep.Sent)
	}
	if rep.Completed != rep.Sent {
		t.Fatalf("fake replicas are instant: completed %d != sent %d", rep.Completed, rep.Sent)
	}
	if len(rep.Tenants) != 2 || rep.Tenants[0].Tenant != "free" || rep.Tenants[1].Tenant != "gold" {
		t.Fatalf("tenant reports malformed: %+v", rep.Tenants)
	}
	var free, gold int64
	for _, slo := range rep.Tenants {
		if slo.Attainment != 1 {
			t.Fatalf("tenant %s attainment = %g, want 1", slo.Tenant, slo.Attainment)
		}
		switch slo.Tenant {
		case "free":
			free = slo.Sent
		case "gold":
			gold = slo.Sent
		}
	}
	// Weight 3:1 — allow broad slack, just assert the mix leans free.
	if free <= gold {
		t.Fatalf("tenant mix ignored weights: free=%d gold=%d", free, gold)
	}
	// The replay's own table renders without panicking.
	if tab := rep.Table("test"); tab == nil {
		t.Fatal("nil table")
	}
}

func TestReplayValidation(t *testing.T) {
	r := testRouter(t)
	if _, err := Replay(context.Background(), r, TraceSpec{RPS: 10, Models: []string{"m"}}); err == nil {
		t.Fatal("zero duration must fail")
	}
	if _, err := Replay(context.Background(), r, TraceSpec{Duration: time.Second, Models: []string{"m"}}); err == nil {
		t.Fatal("zero rps must fail")
	}
	if _, err := Replay(context.Background(), r, TraceSpec{Duration: time.Second, RPS: 10}); err == nil {
		t.Fatal("no models must fail")
	}
	// No backends: shape resolution fails up front.
	if _, err := Replay(context.Background(), r, TraceSpec{Duration: time.Second, RPS: 10, Models: []string{"m"}}); err == nil {
		t.Fatal("no backends must fail")
	}
	if err := r.AddBackend(newFake("replica-a")); err != nil {
		t.Fatal(err)
	}
	twice := []TraceTenant{{Name: "x"}, {Name: "x"}}
	if _, err := Replay(context.Background(), r, TraceSpec{Duration: time.Second, RPS: 10, Models: []string{"m"}, Tenants: twice}); err == nil {
		t.Fatal("a tenant named twice must fail")
	}
}

// fakeClock advances only when waited on. Waits overshoot by the given
// amounts in turn; the wait numbered cancelAt (from 1) cancels the replay
// instead.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	overshoot []time.Duration
	waits     int
	cancelAt  int
	cancel    context.CancelFunc
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Wait(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.waits++
	if f.waits == f.cancelAt {
		f.cancel()
		return ctx.Err()
	}
	if f.waits <= len(f.overshoot) {
		d += f.overshoot[f.waits-1]
	}
	f.now = f.now.Add(d)
	return nil
}

func TestReplaySchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	ms := time.Millisecond
	// 100 rps, doubled from 20 to 40 ms: arrivals are due 10, 20, 25, 30,
	// 35, 40, 50 and 60 ms in. The first wait oversleeps by 25 ms, so
	// arrivals 0..3 leave late and back to back, none is skipped, and each
	// keeps its due time.
	spec := TraceSpec{
		Duration: 60 * ms,
		RPS:      100,
		Bursts:   []Burst{{At: 20 * ms, Duration: 20 * ms, Multiplier: 2}},
		Models:   []string{"m"},
	}
	clk := &fakeClock{now: start, overshoot: []time.Duration{25 * ms}}
	var dues []time.Duration
	_, lags := spec.schedule(context.Background(), clk, func(due time.Time) { dues = append(dues, due.Sub(start)) })
	wantDues := []time.Duration{10 * ms, 20 * ms, 25 * ms, 30 * ms, 35 * ms, 40 * ms, 50 * ms, 60 * ms}
	if !reflect.DeepEqual(dues, wantDues) {
		t.Errorf("due times = %v, want %v", dues, wantDues)
	}
	wantLags := []time.Duration{25 * ms, 15 * ms, 10 * ms, 5 * ms, 0, 0, 0, 0}
	if !reflect.DeepEqual(lags, wantLags) {
		t.Errorf("lags = %v, want %v", lags, wantLags)
	}
	if clk.waits != 4 { // before arrivals 0, 5, 6 and 7 only
		t.Errorf("generator waited %d times, want 4", clk.waits)
	}

	// The same trace through a router: the report carries the lag, and the
	// latencies, measured from the due times, include it.
	r := testRouter(t)
	if err := r.AddBackend(newFake("replica-a")); err != nil {
		t.Fatal(err)
	}
	rep, err := replay(context.Background(), &fakeClock{now: start, overshoot: []time.Duration{25 * ms}}, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 8 || rep.Completed != 8 {
		t.Fatalf("sent %d, completed %d, want 8 and 8", rep.Sent, rep.Completed)
	}
	if rep.LagP99Ms != 15 { // the second largest of eight lags
		t.Errorf("lag p99 = %g ms, want 15", rep.LagP99Ms)
	}
	if p99 := rep.Tenants[0].P99Ms; p99 < rep.LagP99Ms {
		t.Errorf("latency p99 = %g ms, below the generator's lag p99 %g ms", p99, rep.LagP99Ms)
	}
	if rep.Elapsed != 60*ms {
		t.Errorf("elapsed = %v, want 60ms on the fake clock", rep.Elapsed)
	}

	// Deadlines run from the due time too: oversleeping the first wait by
	// 60 ms leaves the first six arrivals 60..30 ms late, past a 30 ms
	// deadline, and the last two 20 and 10 ms late, inside it.
	spec.Tenants = []TraceTenant{{Name: "t", Deadline: 30 * ms}}
	rep, err = replay(context.Background(), &fakeClock{now: start, overshoot: []time.Duration{60 * ms}}, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	if slo := rep.Tenants[0]; slo.Expired != 6 || slo.Completed != 2 {
		t.Errorf("expired %d, completed %d, want 6 and 2", slo.Expired, slo.Completed)
	}
}

func TestReplayCancel(t *testing.T) {
	r := testRouter(t, WithHedgeDelay(0))
	fb := newFake("replica-a")
	fb.delay = 50 * time.Millisecond // every sent request is still in flight at the cancel
	if err := r.AddBackend(fb); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The sixth wait cancels: arrivals 0..4 were sent, the rest of the
	// ten-second trace never is.
	clk := &fakeClock{now: time.Unix(1000, 0), cancelAt: 6, cancel: cancel}
	rep, err := replay(ctx, clk, r, TraceSpec{
		Duration: 10 * time.Second,
		RPS:      100,
		Models:   []string{"m"},
		Tenants:  []TraceTenant{{Name: "a"}, {Name: "b"}},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 5 || rep.Completed != 5 || fb.infers.Load() != 5 {
		t.Fatalf("sent %d, completed %d, backend saw %d; want 5 of each", rep.Sent, rep.Completed, fb.infers.Load())
	}
	for _, slo := range rep.Tenants {
		if sum := slo.Completed + slo.Quota + slo.Shed + slo.Expired + slo.Failed; sum != slo.Sent {
			t.Errorf("tenant %s: sent %d, outcomes sum to %d", slo.Tenant, slo.Sent, sum)
		}
	}
}
