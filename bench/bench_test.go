package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cimflow"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, unsorted
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.75, 8}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, tc.p); got != tc.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {19, 0.50}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {50, 0.75}, {99, 0.75},
		{100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {1200, 0.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestRoundSpread(t *testing.T) {
	// Four rounds with medians 10, 10, 12, 10: (12-10)/10 = 20%.
	xs := []float64{10, 10, 10, 10, 10, 10, 12, 12, 12, 10, 10, 10}
	if got := roundSpreadPct(xs, 4); got != 20 {
		t.Errorf("roundSpreadPct = %v, want 20", got)
	}
}

func TestQuietLatencyAndBestGroup(t *testing.T) {
	few := []float64{30, 10, 20}
	if got := quietLatency(few); got != 10 {
		t.Errorf("quietLatency of 3 samples = %v, want their minimum 10", got)
	}
	many := make([]float64, 101)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := quietLatency(many); got != 51 {
		t.Errorf("quietLatency of 101 samples = %v, want their median 51", got)
	}

	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	// One client: ops end at 1, 2, 2.5 and 4 s; the fastest took 0.5 s.
	dones := []done{{sec(2.5), 1, 300}, {sec(1), 1, 100}, {sec(4), 1, 100}, {sec(2), 1, 100}}
	ops, instr := bestGroup(dones, groupEvents(1))
	if ops != 2 || instr != 2*150 {
		t.Errorf("bestGroup by single events = %v ops/s, %v instr/s; want 2 and 300 (the rate times the mean 150 instr/op)", ops, instr)
	}
	if ops, _ := bestGroup(dones, 0); ops != 1 {
		t.Errorf("bestGroup over the whole window = %v ops/s, want 4 ops / 4 s", ops)
	}
	// Groups of two events: (1, 2] s holds 2 ops in 2 s, (2, 4] s the rest.
	if ops, _ := bestGroup(dones, 2); ops != 1 {
		t.Errorf("bestGroup by pairs = %v ops/s, want 1", ops)
	}
	if groupEvents(1) != 1 || groupEvents(2) != 25 || groupEvents(9) != 200 {
		t.Errorf("groupEvents(1, 2, 9) = %d, %d, %d; want 1, 25, 200", groupEvents(1), groupEvents(2), groupEvents(9))
	}
	if ops, instr := bestGroup(nil, 1); ops != 0 || instr != 0 {
		t.Errorf("bestGroup of nothing = %v, %v", ops, instr)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "root", start: ms(0), end: ms(100), parent: -1},
		{name: "nested", start: ms(10), end: ms(40), parent: 0},
		{name: "leaf", start: ms(15), end: ms(25), parent: 1},
		// Two concurrent children overlapping on [60, 70]: counted once.
		{name: "a", start: ms(50), end: ms(70), parent: 0},
		{name: "b", start: ms(60), end: ms(90), parent: 0},
		// A child running past its parent is clipped to it.
		{name: "late", start: ms(95), end: ms(120), parent: 0},
		// A child inside an earlier sibling's interval adds nothing.
		{name: "inside", start: ms(62), end: ms(68), parent: 0},
	}
	want := []time.Duration{ms(100 - 30 - 40 - 5), ms(30 - 10), ms(10), ms(20), ms(30), ms(25), ms(6)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerSelfByOp(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	nilTracer.end(-1) // must not panic

	tr := newTracer()
	op := tr.newOp()
	outer := tr.begin("outer", -1, op)
	inner := tr.begin("inner", outer, op)
	tr.end(inner)
	tr.end(outer)
	tr.begin("open", -1, op) // never ended: ignored
	by := tr.selfByOp()
	if len(by["outer"]) != 1 || len(by["inner"]) != 1 || len(by["open"]) != 0 {
		t.Errorf("selfByOp = %v", by)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
	}
}

// fakeClock advances only when slept on; the first sleep overshoots.
type fakeClock struct {
	now       time.Time
	overshoot []time.Duration // per sleep, then zero
	sleeps    int
}

func (f *fakeClock) Now() time.Time { return f.now }
func (f *fakeClock) Sleep(d time.Duration) {
	if f.sleeps < len(f.overshoot) {
		d += f.overshoot[f.sleeps]
	}
	f.sleeps++
	f.now = f.now.Add(d)
}

func TestOpenLoopSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	const interval = 10 * time.Millisecond
	// The generator oversleeps its first wait by 25 ms: arrivals 1..3 leave
	// late and back to back, none is skipped, and every arrival still
	// carries its scheduled due time, so its latency includes the stall.
	clk := &fakeClock{now: start, overshoot: []time.Duration{25 * time.Millisecond}}
	dues := make([]time.Time, 6)
	lags := openLoop(clk, len(dues), interval, func(i int, due time.Time) { dues[i] = due })
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("arrival %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
	}
	want := []time.Duration{0, 25 * time.Millisecond, 15 * time.Millisecond, 5 * time.Millisecond, 0, 0}
	if !reflect.DeepEqual(lags, want) {
		t.Errorf("lags = %v, want %v", lags, want)
	}
	if clk.sleeps != 3 { // before arrivals 1, 4 and 5 only
		t.Errorf("generator slept %d times, want 3", clk.sleeps)
	}
}

// benchmarkJSON reads the manifest at the repository root.
func benchmarkJSON(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesProgram(t *testing.T) {
	if got, want := benchmarkJSON(t), theManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with `go run ./bench -manifest`")
	}
	seen := map[string]bool{}
	for _, d := range endToEnd {
		seen[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestSmoke runs all four workloads end to end, shrunk to tiny models and
// a handful of ops, untraced and traced, and checks the result line: the
// metrics emitted are exactly the ones BENCHMARK.json names for that mode,
// each with its declared unit, and every op verified.
func TestSmoke(t *testing.T) {
	m := benchmarkJSON(t)
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			c := &config{workload: w.Name, seed: 7, seconds: 0.05, trace: traced, smoke: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			rep, err := runOne(context.Background(), c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, d := range m.PerLayer {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range m.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s: emitted=%v unit %q, want unit %q", w.Name, traced, name, ok, got.Unit, unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is emitted but not in BENCHMARK.json", w.Name, traced, name)
				}
			}
			// The result line has exactly the contract's keys.
			var buf bytes.Buffer
			if err := rep.print(&buf, traced); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var line map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s: result line keys = %v", w.Name, line)
			}
		}
	}
}

func TestVerifier(t *testing.T) {
	v := newVerifier()
	want := cimflow.Tensor{H: 1, W: 1, C: 2, Data: []int8{1, 2}}
	result := func(cycles int64, data ...int8) *cimflow.Result {
		return &cimflow.Result{Output: cimflow.Tensor{H: 1, W: 1, C: 2, Data: data}, Stats: &cimflow.Stats{Cycles: cycles}}
	}
	if !v.op("p", nil, result(10, 1, 2), want) || v.failed != 0 || len(v.violations) != 0 {
		t.Fatalf("a correct op did not pass: failed=%d %v", v.failed, v.violations)
	}
	if v.op("p", nil, result(10, 1, 3), want) || v.failed != 1 {
		t.Error("a wrong output byte did not count as a failed op")
	}
	if v.op("p", context.DeadlineExceeded, nil, want) || v.failed != 2 {
		t.Error("an errored op did not count as failed")
	}
	n := len(v.violations)
	if !v.op("p", nil, result(11, 1, 2), want) || v.failed != 2 || len(v.violations) != n+1 {
		t.Error("a second cycle count for one program must be a violation, not a failed op")
	}
	n = len(v.violations)
	if v.op("resnet18/generic@mg8-flit8", nil, result(1, 1, 2), want); len(v.violations) != n+1 {
		t.Error("a cycle count off the recorded constant was not flagged")
	}
	if v.attempted != 5 {
		t.Errorf("attempted = %d, want 5", v.attempted)
	}
	rep, err := newReport(values{}, true, v.attempted, v.failed, v.violations)
	if err != nil || rep.Correct {
		t.Errorf("a run with failures reported correct (err %v)", err)
	}
	if _, err := newReport(values{"setup_s": 1}, false, 1, 0, nil); err == nil {
		t.Error("an untraced report without every end-to-end metric was accepted")
	}
}
