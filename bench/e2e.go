package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// done is a completion event of the throughput window: at offset `at` from
// the window's start, `ops` operations finished (a lane batch finishes
// several at once) having simulated `instr` instructions.
type done struct {
	at    time.Duration
	ops   int
	instr int64
}

// phase is what a workload's untraced run measured; endToEnd turns it into
// the end-to-end metrics.
type phase struct {
	name string
	// setups are the durations of the repeated set-ups.
	setups []time.Duration
	// lat is the host wall time of each timed op in ms, in arrival order.
	lat []float64
	// dones are the completions of the throughput window, in any order;
	// group is how many of them form a throughput group (groupEvents), 0
	// for the whole window as one group.
	dones []done
	group int
	// from and to bracket the whole timed phase, over which allOps
	// operations ran; heapMB is the live heap after it, systems still open.
	from, to hostMark
	allOps   int
	heapMB   float64
}

// quietSamples is the sample count from which a run's median op time is
// steady enough to stand for the op time on an undisturbed host.
const quietSamples = 100

// quietLatency estimates the op time on an undisturbed host. Interference
// on this shared host only ever slows an op down, in bursts and in slow
// periods (README, "Noise"). A run of few, heavy, like ops (every warm and
// cold run) has its median moved by both while its fastest op repeats from
// run to run several times better: there it is the minimum. A run of many
// light, heterogeneous ops (serve_tiny's 1200 requests) has a steady
// median, while its fastest ops are a lottery of which request met an idle
// batcher: there it is the median.
func quietLatency(lat []float64) float64 {
	if len(lat) < quietSamples {
		return quantile(lat, 0)
	}
	return quantile(lat, 0.5)
}

// edgeShare bounds, for the throughput groups, the ops in flight at a
// group's edges relative to the ops completing inside it.
const edgeShare = 0.04

// groupEvents sizes the throughput groups of a closed loop. A group's rate
// is read from completion to completion, so the up to concurrency-1 other
// ops in flight at its edges blur it; groups hold (concurrency-1)/edgeShare
// events to keep that under 4% — one event for a single client, where
// there is no blur.
func groupEvents(concurrency int) int {
	return max(int(float64(concurrency-1)/edgeShare), 1)
}

// bestGroup cuts the completion events, in time order, into consecutive
// groups of `size` events (0: one group) and returns the ops per second of
// the group that ran fastest — the least disturbed stretch of the run, for
// the reason quietLatency gives — and the simulated instructions per
// second at that rate and the window's mean instructions per op (the
// fastest group's own instruction mix would add a lottery of which ops
// fell into it).
func bestGroup(dones []done, size int) (opsPerS, instrPerS float64) {
	ev := append([]done(nil), dones...)
	sort.Slice(ev, func(i, j int) bool { return ev[i].at < ev[j].at })
	if len(ev) == 0 {
		return 0, 0
	}
	if size <= 0 {
		size = len(ev)
	}
	groups := max(len(ev)/size, 1)
	prev := time.Duration(0)
	var allOps, allInstr float64
	for g := 0; g < groups; g++ {
		hi := (g + 1) * size
		if g == groups-1 {
			hi = len(ev) // the remainder joins the last group
		}
		var ops int
		for _, e := range ev[g*size : hi] {
			ops += e.ops
			allOps, allInstr = allOps+float64(e.ops), allInstr+float64(e.instr)
		}
		if secs := (ev[hi-1].at - prev).Seconds(); secs > 0 {
			opsPerS = max(opsPerS, float64(ops)/secs)
		}
		prev = ev[hi-1].at
	}
	return opsPerS, opsPerS * allInstr / max(allOps, 1)
}

// endToEnd derives the end-to-end metrics. only selects the programs whose
// simulated cycles and energy are summed (nil = all the verifier saw).
func (p *phase) endToEnd(v *verifier, only func(program string) bool) values {
	setups := make([]float64, len(p.setups))
	for i, d := range p.setups {
		setups[i] = d.Seconds()
	}
	cycles, energy := v.simTotals(only)
	opsPerS, instrPerS := bestGroup(p.dones, p.group)
	var ops int
	var last time.Duration
	for _, e := range p.dones {
		ops, last = ops+e.ops, max(last, e.at)
	}
	tail := tailPercentile(len(p.lat))
	fmt.Fprintf(os.Stderr, "bench: %s: %d timed ops, op ms min %.4g p10 %.4g p50 %.4g p%.0f %.4g; %d ops in %.2fs = %.4g ops/s over the whole window\n",
		p.name, len(p.lat), quantile(p.lat, 0), quantile(p.lat, 0.10), quantile(p.lat, 0.50), 100*tail, quantile(p.lat, tail),
		ops, last.Seconds(), float64(ops)/max(last.Seconds(), 1e-9))
	return values{
		"setup_s":          quantile(setups, 0.5),
		"op_ms_quiet":      quietLatency(p.lat),
		"ops_per_s":        opsPerS,
		"sim_minstr_per_s": instrPerS / 1e6,
		"sim_cycles":       float64(cycles),
		"sim_energy_mj":    energy,
		"heap_live_mb":     p.heapMB,
		"alloc_kb_per_op":  float64(p.to.totalAlloc-p.from.totalAlloc) / 1024 / float64(max(p.allOps, 1)),
	}
}

// repeatSetup builds the system under test several times, tearing all but
// the last one down, so that setup_s is a median and not one sample: at
// least five times and until half a second has gone into it, once in smoke
// mode. Cheap set-ups repeat more — cold_dse's 0.15 ms one some 3000 times:
// over its first fifty repetitions a fresh process is still faulting in
// heap pages and their median ranged 0.18–0.40 ms from run to run, over the
// half second it stays within 0.144–0.164 ms.
func repeatSetup[T any](c *config, build func() (T, error), teardown func(T)) (T, []time.Duration, error) {
	var durs []time.Duration
	var total time.Duration
	for {
		t0 := time.Now()
		sys, err := build()
		if err != nil {
			return sys, nil, err
		}
		d := time.Since(t0)
		durs = append(durs, d)
		total += d
		if c.smoke || (len(durs) >= 5 && total >= time.Second/2) {
			return sys, durs, nil
		}
		teardown(sys)
	}
}
