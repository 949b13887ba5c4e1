// Command cimflow-dse runs a declarative design-space exploration sweep
// from a JSON spec: the cross-product of models, compilation strategies
// and hardware knobs (MG size, NoC flit width, core mesh, local memory)
// simulated on a parallel worker pool with compile caching, then analyzed
// for the energy/throughput Pareto frontier and best points.
//
//	cimflow-dse -example > sweep.json       # print a template spec
//	cimflow-dse -spec sweep.json            # run it (all cores)
//	cimflow-dse -spec sweep.json -j 4       # bounded parallelism
//	cimflow-dse -spec sweep.json -csv out.csv
//	cimflow-dse -spec sweep.json -checkpoint state.json   # resumable
//	cimflow-dse -spec sweep.json -pareto    # frontier rows only
//
// Instead of simulating the full cross-product, -search explores the space
// under a simulation budget: free planning-stage cost estimates prune the
// candidates, and only the survivors get cycle-accurate simulations.
//
//	cimflow-dse -spec sweep.json -search halving            # budget = 25% of space
//	cimflow-dse -spec sweep.json -search evolve -budget 200 -seed 7
//	cimflow-dse -spec sweep.json -search evolve -budget 200 \
//	    -checkpoint state.json -cache-dir store -shard 2/4  # one of 4 shard procs
//
// Sharded searches split the simulation budget across cooperating
// processes: every shard runs the same spec, strategy, seed and budget,
// simulates only its share of the asks, and reads the rest from its peers'
// shard checkpoints (derived from -checkpoint). Each shard converges to the
// identical merged frontier.
//
// A point the chip cannot hold is a class of its own, apart from failures:
// its row reads "INFEASIBLE <resource> need N have M (operator)" and the
// summary line counts it as infeasible, not failed. The planner finds
// macro-group and core limits, so a search never simulates such a point.
//
// The spec format (all axes optional except models; empty axes keep the
// base configuration's value):
//
//	{
//	  "name": "fig7-mini",
//	  "models": ["mobilenetv2"],
//	  "strategies": ["generic", "dp"],
//	  "mg_sizes": [4, 8, 16],
//	  "flit_bytes": [8, 16],
//	  "core_meshes": [[8, 8], [4, 4]],
//	  "local_mem_kb": [256, 512],
//	  "seed": 1,
//	  "base": { "clock_ghz": 1.0 }
//	}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"cimflow"
	"cimflow/internal/dse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cimflow-dse:", err)
		os.Exit(1)
	}
}

func run() error {
	specPath := flag.String("spec", "", "sweep spec JSON file (required unless -example)")
	workers := flag.Int("j", 0, "worker-pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "compile-artifact store directory: sweep shards running as separate processes share compiles through it")
	csvPath := flag.String("csv", "", "write the result table as CSV to this file")
	ckptPath := flag.String("checkpoint", "", "checkpoint file: resume done points, record progress")
	paretoOnly := flag.Bool("pareto", false, "print only the Pareto-optimal rows")
	quiet := flag.Bool("q", false, "suppress per-point progress lines")
	example := flag.Bool("example", false, "print a template spec and exit")
	searchName := flag.String("search", "", "search the space instead of sweeping it: halving, hillclimb or evolve")
	budget := flag.Int("budget", 0, "simulation budget for -search (0 = 25% of the space)")
	seed := flag.Int64("seed", 1, "random seed for -search (same seed + budget = same trajectory)")
	shardSpec := flag.String("shard", "", "shard i/n for -search: this process simulates share i of n (requires -checkpoint)")
	flag.Parse()

	if *example {
		data, err := json.MarshalIndent(dse.ExampleSpec(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if *specPath == "" {
		flag.Usage()
		return fmt.Errorf("-spec is required")
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

	opt := cimflow.SweepOptions{Workers: *workers, Cache: cimflow.NewCompileCache()}
	if *cacheDir != "" {
		store, err := cimflow.OpenArtifactStore(*cacheDir)
		if err != nil {
			return err
		}
		defer store.Close()
		opt.Cache.SetStore(store)
	}
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

	var shard, shardCount int
	if *shardSpec != "" {
		if *searchName == "" {
			return fmt.Errorf("-shard requires -search")
		}
		if shard, shardCount, err = parseShard(*shardSpec); err != nil {
			return err
		}
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
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
			Shard:      shard,
			ShardCount: shardCount,
		})
		if shardCount == 0 {
			saveCheckpoint(opt.Checkpoint) // a shard saves its own file
		}
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
	table := cimflow.SweepTable(title, shown)
	table.Write(os.Stdout)

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
	fmt.Printf("\n%s in %v: %d frontier point(s), %d compiles, %d cache hits, %d failed, %d infeasible\n",
		summary, time.Since(start).Round(time.Millisecond), len(front), cache.CompileCalls(), cache.Hits(), failed, unfit)
	if store := cache.Store(); store != nil {
		st := store.Stats()
		fmt.Printf("artifact store %s: %d loaded, %d saved, %d evicted\n",
			store.Dir(), st.Loads, st.Saves, st.Evictions)
	}
	for _, b := range []struct {
		name  string
		score func(cimflow.SweepMetrics) float64
	}{{"tops", dse.ScoreTOPS}, {"energy", dse.ScoreEnergy}, {"edp", dse.ScoreEDP}} {
		if r, ok := cimflow.BestPoint(rows, b.score); ok {
			fmt.Printf("best %-7s %-40s %8.3f TOPS  %10.4f mJ\n",
				b.name, r.Point.Label(), r.Metrics.TOPS, r.Metrics.EnergyMJ)
		}
	}
	for _, r := range front {
		fmt.Printf("frontier %-40s %8.3f TOPS  %10.4f mJ\n",
			r.Point.Label(), r.Metrics.TOPS, r.Metrics.EnergyMJ)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := table.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if failed+unfit == len(rows) && len(rows) > 0 {
		return fmt.Errorf("every point failed or was infeasible")
	}
	return nil
}

// infeasible reports whether err is a point the chip cannot hold.
func infeasible(err error) bool {
	var inf *cimflow.InfeasibleError
	return errors.As(err, &inf)
}

// parseShard parses "i/n" with 0 <= i < n and n >= 2.
func parseShard(s string) (shard, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		shard, err = strconv.Atoi(i)
		if err == nil {
			count, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || count < 2 || shard < 0 || shard >= count {
		return 0, 0, fmt.Errorf("-shard must be i/n with 0 <= i < n and n >= 2, got %q", s)
	}
	return shard, count, nil
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
