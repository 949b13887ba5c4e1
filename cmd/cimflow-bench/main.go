// Command cimflow-bench regenerates the paper's evaluation figures:
//
//	cimflow-bench -fig 5             # compilation strategies (Fig. 5)
//	cimflow-bench -fig 6             # MG size x flit sweep (Fig. 6)
//	cimflow-bench -fig 7             # SW/HW co-design space (Fig. 7)
//	cimflow-bench -fig all -j 8      # everything, 8 sweep workers
//	cimflow-bench -fig all -csv out/ # everything, also as CSV files
//	cimflow-bench -format json       # NDJSON rows (one object per row)
//	                                 # for dashboards; timing goes to stderr
//
// Figures run on the DSE engine's worker pool (-j controls parallelism;
// simulated rows are deterministic at any setting) and share one compile
// cache, so Fig. 7 reuses every generic-strategy artifact Fig. 6 already
// compiled. Every row carries compile_ms and sim_ms columns — in all three
// formats — splitting its wall-clock cost between the compiler and the
// simulator, so compile-bound rows (e.g. dp on MobileNet-class graphs) are
// visible in the perf trajectory instead of inferred. Each figure prints
// the same rows/series the paper reports; see EXPERIMENTS.md for the
// measured-vs-paper comparison.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cimflow"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5 | 6 | 7 | all")
	models := flag.String("models", "", "comma-separated model subset (default: the figure's models)")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	workers := flag.Int("j", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "stdout format: table | csv | json (one JSON object per row)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	flag.Parse()
	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "cimflow-bench: unknown -format %q (want table, csv or json)\n", *format)
		os.Exit(2)
	}

	// Ctrl-C aborts the current simulations mid-run instead of hanging
	// until the sweep finishes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Profiling hooks so hot-path regressions in the simulator are
	// diagnosable from the shipped binary (go tool pprof), without editing
	// benchmark code. Profiles are flushed through flushProfiles on both
	// the normal and the fail exit paths — os.Exit skips defers, and an
	// interrupted profiled run (Ctrl-C during a figure) must still leave a
	// readable profile behind.
	flushProfiles := func() {}
	fail := func(args ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"cimflow-bench:"}, args...)...)
		flushProfiles()
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("starting CPU profile:", err)
		}
		stop := func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		flushProfiles = stop
		defer stop()
	}
	if *memProfile != "" {
		writeHeap := func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cimflow-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cimflow-bench: writing heap profile:", err)
			}
		}
		stopCPU := flushProfiles
		flushProfiles = func() {
			stopCPU()
			writeHeap()
		}
		defer writeHeap()
	}

	var subset []string
	if *models != "" {
		subset = strings.Split(*models, ",")
	}
	cfg := cimflow.DefaultConfig()

	cache := cimflow.NewCompileCache()
	opt := cimflow.SweepOptions{Workers: *workers, Cache: cache}

	writeCSV := func(name string, t *cimflow.Table) error {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	run := func(name string, f func() (*cimflow.Table, error)) {
		start := time.Now()
		compiles, hits := cache.CompileCalls(), cache.Hits()
		t, err := f()
		if err != nil {
			fail(name+":", err)
		}
		// Machine-readable formats keep stdout clean: rows only, timing on
		// stderr, so pipelines can consume the stream directly.
		switch *format {
		case "csv":
			err = t.WriteCSV(os.Stdout)
		case "json":
			err = t.WriteJSON(os.Stdout)
		default:
			err = t.Write(os.Stdout)
		}
		if err != nil {
			fail(name+":", err)
		}
		timing := os.Stdout
		if *format != "table" {
			timing = os.Stderr
		}
		fmt.Fprintf(timing, "(%s regenerated in %v; %d compiles, %d cache hits)\n\n",
			name, time.Since(start).Round(time.Millisecond),
			cache.CompileCalls()-compiles, cache.Hits()-hits)
		if *csvDir != "" {
			if err := writeCSV(name, t); err != nil {
				fail(err)
			}
		}
	}
	want := func(n string) bool { return *fig == "all" || *fig == n }
	if want("5") {
		run("fig5", func() (*cimflow.Table, error) {
			rows, err := cimflow.RunFig5With(ctx, cfg, subset, opt)
			if err != nil {
				return nil, err
			}
			return cimflow.Fig5Table(rows), nil
		})
	}
	if want("6") {
		run("fig6", func() (*cimflow.Table, error) {
			rows, err := cimflow.RunFig6With(ctx, cfg, subset, opt)
			if err != nil {
				return nil, err
			}
			return cimflow.Fig6Table(rows), nil
		})
	}
	if want("7") {
		run("fig7", func() (*cimflow.Table, error) {
			rows, err := cimflow.RunFig7With(ctx, cfg, subset, opt)
			if err != nil {
				return nil, err
			}
			return cimflow.Fig7Table(rows), nil
		})
	}
}
