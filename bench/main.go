// Command bench is the repository's benchmark: four workloads over
// compile → simulate → serve, each verified against the golden executor,
// reporting end-to-end metrics with tracing off and per-layer metrics from
// a traced run. See README.md for the metric definitions, the workloads'
// rationale and the measured noise; BENCHMARK.json is printed by -manifest.
//
//	go run ./bench -workload warm_mvm -seed 1
//	go run ./bench -workload all -seed 1 -trace 1
//	go run ./bench -workload serve_tiny -aa 3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"
)

// runSeconds is how long one run measures, as BENCHMARK.json states it.
const runSeconds = 20

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// smoke shrinks every workload to tiny models and at most five
	// operations: the end-to-end self-test the package's tests run.
	smoke bool
}

// timedFor is the length of a timed phase that takes the given share of
// the run.
func (c *config) timedFor(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// maxOps caps a timed loop in smoke mode (0 = no cap).
func (c *config) maxOps() int {
	if c.smoke {
		return 5
	}
	return 0
}

// workload is one set of inputs the benchmark runs. run measures the
// end-to-end metrics with tracing off; traced measures the per-layer ones,
// recording spans around each call into a layer.
type workload struct {
	name, why string
	run       func(ctx context.Context, c *config) (*outcome, error)
	traced    func(ctx context.Context, c *config, tr *tracer) (*outcome, error)
}

// outcome is what a run measured and verified.
type outcome struct {
	vals values
	*verifier
}

var workloads = []workload{
	{"warm_mvm", "resnet18/generic, one warm session, closed loop: sim.Chip.Run is ~97% of the op and the MVM handler dominates it, so serial-executor and MVM-kernel changes show here",
		warmMVM.run, warmMVM.traced},
	{"warm_lanes", "mobilenetv2/generic in 8-lane batches: the lane executor, per-lane staging/readback and divergence check on a dispatch-bound depthwise graph",
		warmLanes.run, warmLanes.traced},
	{"cold_dse", "dse sweep with a fresh compile cache over models x strategies x MG x flit: the only workload paying compile, weight staging and chip build per op, on varying architectures",
		runCold, tracedCold},
	{"serve_tiny", "two replicas behind the router serving tiny models, open loop at 100 then 150 req/s: session acquire, reset, queueing, batching and the router hop dominate, Chip.Run is under a tenth",
		runServe, tracedServe},
}

func main() {
	c := &config{}
	var trace, aa int
	var printManifest bool
	flag.StringVar(&c.workload, "workload", "", "workload name, or all")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of weights, inputs, point order and request trace")
	flag.Float64Var(&c.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&c.traceOut, "trace-out", "", "Chrome trace file of a traced run (default: in the temp dir)")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny models, at most 5 ops per phase")
	flag.IntVar(&aa, "aa", 0, "run the workload k times in fresh processes and print each metric's spread")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	c.trace = trace != 0

	if printManifest {
		data, err := json.MarshalIndent(theManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var names []string
	for _, w := range workloads {
		if c.workload == w.name || c.workload == "all" {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q (have warm_mvm, warm_lanes, cold_dse, serve_tiny, all)", c.workload))
	}
	// Several workloads, or several repetitions of one, each get a fresh
	// process: heap and pool state never leak from one run into the next.
	if aa > 0 || len(names) > 1 {
		ok := true
		for _, name := range names {
			good, err := runFresh(ctx, c, name, max(aa, 1))
			if err != nil {
				fatal(err)
			}
			ok = ok && good
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	rep, err := runOne(ctx, c)
	if err != nil {
		fatal(err)
	}
	if err := rep.print(os.Stdout, c.trace); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// runOne runs the configured workload in this process.
func runOne(ctx context.Context, c *config) (*report, error) {
	for _, w := range workloads {
		if w.name != c.workload {
			continue
		}
		var out *outcome
		var err error
		if c.trace {
			tr := newTracer()
			if out, err = w.traced(ctx, c, tr); err == nil {
				err = writeTrace(c, tr)
			}
		} else {
			out, err = w.run(ctx, c)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for _, v := range out.violations {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, v)
		}
		return newReport(out.vals, c.trace, out.attempted, out.failed, out.violations)
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

// writeTrace writes the spans to -trace-out, or to a file in the temp
// directory (never the repository) when none was named.
func writeTrace(c *config, tr *tracer) error {
	path := c.traceOut
	if path == "" {
		dir, err := os.MkdirTemp("", "cimflow-bench-")
		if err != nil {
			return err
		}
		path = filepath.Join(dir, c.workload+".trace.json")
	}
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: trace written to %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
