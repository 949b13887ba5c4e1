// Command cimflow-dse is the design-space front end. It regenerates the
// paper's evaluation figures, and it sweeps or searches a JSON spec: the
// cross-product of models, compilation strategies and hardware knobs (MG
// size, NoC flit width, core mesh, local memory), simulated on a parallel
// worker pool with compile caching and analyzed for the energy/throughput
// Pareto frontier and best points.
//
//	cimflow-dse -fig 5                      # Fig. 5 (6, 7: MG x flit, SW/HW space)
//	cimflow-dse -fig all -j 8 -csv out/     # Figs. 5-7, also as out/figN.csv
//	cimflow-dse -fig 5 -models resnet18     # one figure on a model subset
//	cimflow-dse -example > sweep.json       # print a template spec
//	cimflow-dse -spec sweep.json -j 4       # sweep it on 4 workers
//	cimflow-dse -spec sweep.json -csv out.csv -checkpoint state.json -pareto
//
// Every mode shares its output flags. -format csv or json prints the rows
// alone on stdout (json: one object per row) and moves progress, timings
// and summaries to stderr. Every row carries compile_ms and sim_ms, its
// wall-clock cost split between compiler and simulator; every other column
// is deterministic at any -j. The figures share one compile cache, and a
// figure fails on any point that does not simulate. -cpuprofile and
// -memprofile profile the whole run, an interrupted or failed one too.
//
// Instead of simulating the full cross-product, -search explores the space
// under a simulation budget: free planning-stage cost estimates prune the
// candidates, and only the survivors get cycle-accurate simulations.
//
//	cimflow-dse -spec sweep.json -search halving            # budget = 25% of space
//	cimflow-dse -spec sweep.json -search hillclimb -budget 200 -seed 7
//
// A run is one process: -j workers share its compile cache, and
// -checkpoint records each simulated point, so re-running the same command
// resumes an interrupted sweep or search and replays a finished one with
// no compiles.
//
// A point the chip cannot hold is a class of its own, apart from failures:
// its row reads "INFEASIBLE <resource> need N have M (operator)" and the
// summary line counts it as infeasible, not failed. The planner finds
// macro-group and core limits, so a search never simulates such a point.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cimflow"
	"cimflow/internal/dse"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cimflow-dse:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cimflow-dse", flag.ExitOnError)
	fig := fs.String("fig", "", "regenerate a paper figure instead of running a spec: 5 | 6 | 7 | all")
	models := fs.String("models", "", "comma-separated model subset for -fig (default: the figure's models)")
	specPath := fs.String("spec", "", "sweep spec JSON file (required unless -fig or -example)")
	workers := fs.Int("j", 0, "worker-pool size (0 = GOMAXPROCS)")
	format := fs.String("format", "table", "stdout format: table | csv | json (one JSON object per row); csv and json move progress and summaries to stderr")
	csvPath := fs.String("csv", "", "also write the result table as CSV to this file (with -fig: figN.csv files into this directory)")
	ckptPath := fs.String("checkpoint", "", "checkpoint file: resume done points, record progress")
	paretoOnly := fs.Bool("pareto", false, "print only the Pareto-optimal rows")
	quiet := fs.Bool("q", false, "suppress per-point progress lines")
	example := fs.Bool("example", false, "print a template spec and exit")
	searchName := fs.String("search", "", "search the space instead of sweeping it: halving or hillclimb")
	budget := fs.Int("budget", 0, "simulation budget for -search (0 = 25% of the space)")
	seed := fs.Int64("seed", 1, "random seed for -search (same seed + budget = same trajectory)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	fs.Parse(args)

	if *example {
		data, err := json.MarshalIndent(dse.ExampleSpec(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	// emit prints a result table in the -format and, when csvFile is set,
	// writes it there too; info takes progress, timings and summaries:
	// stdout beside a table, stderr beside rows a pipeline reads.
	var info io.Writer = os.Stdout
	write := (*cimflow.Table).Write
	switch *format {
	case "table":
	case "csv", "json":
		info, write = os.Stderr, (*cimflow.Table).WriteCSV
		if *format == "json" {
			write = (*cimflow.Table).WriteJSON
		}
	default:
		return fmt.Errorf("unknown -format %q (want table, csv or json)", *format)
	}
	emit := func(t *cimflow.Table, csvFile string) error {
		if err := write(t, os.Stdout); err != nil || csvFile == "" {
			return err
		}
		f, err := os.Create(csvFile)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if (*fig == "") == (*specPath == "") {
		fs.Usage()
		return fmt.Errorf("give one of -fig and -spec")
	}
	// A mode's flags are refused outside it rather than dropped; Visit sees
	// a flag given at its default value too.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, m := range []struct {
		name, mode string
		on         bool
	}{
		{"models", "-fig", *fig != ""},
		{"search", "-spec", *specPath != ""},
		{"pareto", "-spec", *specPath != ""},
		{"budget", "-search", *searchName != ""},
		{"seed", "-search", *searchName != ""},
	} {
		if given[m.name] && !m.on {
			return fmt.Errorf("-%s needs %s", m.name, m.mode)
		}
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	opt := cimflow.SweepOptions{Workers: *workers, Cache: cimflow.NewCompileCache()}
	if *ckptPath != "" {
		ckpt, err := dse.LoadCheckpoint(*ckptPath)
		if err != nil {
			return err
		}
		if n := ckpt.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d point(s) already in %s\n", n, *ckptPath)
		}
		opt.Checkpoint = ckpt
	}

	// Ctrl-C aborts the current simulations mid-run instead of hanging
	// until the sweep finishes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *fig != "" {
		var subset []string
		if *models != "" {
			subset = strings.Split(*models, ",")
		}
		err := figures(ctx, *fig, subset, opt, emit, info, *csvPath)
		saveCheckpoint(opt.Checkpoint)
		return err
	}

	spec, err := dse.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := spec.BaseConfig()
	if err != nil {
		return err
	}
	points, err := spec.Expand(base)
	if err != nil {
		return err
	}
	tag := fmt.Sprintf("[%%3d/%3d]", len(points))
	if *searchName != "" {
		tag = "[sim %3d]"
	}
	done := 0
	progress := func(r cimflow.SweepResult) {
		done++
		status := fmt.Sprintf("%8d cyc  %6.3f TOPS  %8.4f mJ",
			r.Metrics.Cycles, r.Metrics.TOPS, r.Metrics.EnergyMJ)
		if r.Err != nil {
			status = dse.ErrorCell(r.Err)
			if !infeasible(r.Err) {
				status = "ERROR " + status
			}
		} else if r.Cached {
			status += "  (checkpoint)"
		}
		fmt.Fprintf(os.Stderr, tag+" %-40s %s\n", done, r.Point.Label(), status)
	}
	if *quiet {
		progress = nil
	}

	start := time.Now()
	kind, title, summary := "sweep", spec.Name, fmt.Sprintf("%d point(s)", len(points))
	var rows, front []cimflow.SweepResult
	if *searchName == "" {
		opt.OnResult = progress
		rows, err = cimflow.RunSweep(ctx, points, opt)
		front = cimflow.ParetoFront(rows)
		saveCheckpoint(opt.Checkpoint)
	} else {
		kind = "search"
		var res *cimflow.SearchResult
		res, err = cimflow.Search(ctx, spec, cimflow.SearchOptions{
			Strategy:   *searchName,
			Budget:     *budget,
			Seed:       *seed,
			Workers:    opt.Workers,
			Cache:      opt.Cache,
			Checkpoint: opt.Checkpoint,
			OnSim:      progress,
		})
		saveCheckpoint(opt.Checkpoint)
		if err == nil {
			rows, front = res.Trajectory, res.Frontier
			title += fmt.Sprintf(" (%s)", res.Strategy)
			summary = fmt.Sprintf("%d/%d points simulated (%d estimates, hypervolume %.4g)",
				res.Sims, res.SpaceSize, res.Estimates, res.Hypervolume)
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("%s interrupted: %w (progress saved, re-run to resume)", kind, err)
		}
		return err
	}

	if spec.Name == "" {
		title = "design-space " + kind + title
	}
	shown := rows
	if *paretoOnly {
		shown, title = front, title+" (Pareto frontier)"
	}
	if err := emit(cimflow.SweepTable(title, shown), *csvPath); err != nil {
		return err
	}

	failed, unfit := 0, 0
	for _, r := range rows {
		switch {
		case infeasible(r.Err):
			unfit++
		case r.Err != nil:
			failed++
		}
	}
	cache := opt.Cache
	fmt.Fprintf(info, "\n%s in %v: %d frontier point(s), %d compiles, %d cache hits, %d failed, %d infeasible\n",
		summary, time.Since(start).Round(time.Millisecond), len(front), cache.CompileCalls(), cache.Hits(), failed, unfit)
	for _, b := range []struct {
		name  string
		score func(cimflow.SweepMetrics) float64
	}{{"tops", dse.ScoreTOPS}, {"energy", dse.ScoreEnergy}, {"edp", dse.ScoreEDP}} {
		if r, ok := cimflow.BestPoint(rows, b.score); ok {
			fmt.Fprintf(info, "best %-7s %-40s %8.3f TOPS  %10.4f mJ\n",
				b.name, r.Point.Label(), r.Metrics.TOPS, r.Metrics.EnergyMJ)
		}
	}
	for _, r := range front {
		fmt.Fprintf(info, "frontier %-40s %8.3f TOPS  %10.4f mJ\n",
			r.Point.Label(), r.Metrics.TOPS, r.Metrics.EnergyMJ)
	}

	if failed+unfit == len(rows) && len(rows) > 0 {
		return fmt.Errorf("every point failed or was infeasible")
	}
	return nil
}

// figures regenerates one of the paper's Figs. 5-7, or all three, on the
// default architecture: each figure's table, a timing line, and figN.csv
// in csvDir when it is set.
func figures(ctx context.Context, which string, models []string, opt cimflow.SweepOptions,
	emit func(*cimflow.Table, string) error, info io.Writer, csvDir string) error {
	cfg := cimflow.DefaultConfig()
	figs := map[string]func() (*cimflow.Table, error){
		"5": func() (*cimflow.Table, error) {
			rows, err := dse.RunFig5(ctx, cfg, models, opt)
			return dse.Fig5Table(rows), err
		},
		"6": func() (*cimflow.Table, error) {
			rows, err := dse.RunFig6(ctx, cfg, models, opt)
			return dse.Fig6Table(rows), err
		},
		"7": func() (*cimflow.Table, error) {
			rows, err := dse.RunFig7(ctx, cfg, models, opt)
			return dse.Fig7Table(rows), err
		},
	}
	names := []string{which}
	if which == "all" {
		names = []string{"5", "6", "7"}
	} else if figs[which] == nil {
		return fmt.Errorf("-fig must be 5, 6, 7 or all, got %q", which)
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, n := range names {
		start := time.Now()
		compiles, hits := opt.Cache.CompileCalls(), opt.Cache.Hits()
		t, err := figs[n]()
		if err != nil {
			return fmt.Errorf("fig%s: %w", n, err)
		}
		csvFile := ""
		if csvDir != "" {
			csvFile = filepath.Join(csvDir, "fig"+n+".csv")
		}
		if err := emit(t, csvFile); err != nil {
			return err
		}
		fmt.Fprintf(info, "(fig%s regenerated in %v; %d compiles, %d cache hits)\n\n",
			n, time.Since(start).Round(time.Millisecond),
			opt.Cache.CompileCalls()-compiles, opt.Cache.Hits()-hits)
	}
	return nil
}

// startProfiles starts the -cpuprofile; the returned stop ends it and
// writes the -memprofile after a GC, so it shows live objects, not
// transient garbage. run defers stop, so a failed or interrupted run
// still leaves readable profiles.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cimflow-dse: writing CPU profile:", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cimflow-dse: writing heap profile:", err)
		}
	}, nil
}

// infeasible reports whether err is a point the chip cannot hold.
func infeasible(err error) bool {
	var inf *cimflow.InfeasibleError
	return errors.As(err, &inf)
}

// saveCheckpoint writes a checkpoint, if any, reporting but not failing on
// an error: the results are still worth printing.
func saveCheckpoint(ckpt *dse.Checkpoint) {
	if ckpt == nil {
		return
	}
	if err := ckpt.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "cimflow-dse:", err)
	}
}
