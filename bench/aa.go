package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runFresh runs one workload k times, each in a fresh process of this same
// binary with this run's settings. With k == 1 it relays the child's
// output; with more it prints, per metric, min / median / max over the k
// same-code runs, their relative gap (max-min)/median and the regression
// bound that gap implies: max(5%, 1.5 x gap). It reports whether every
// run was correct.
func runFresh(ctx context.Context, c *config, name string, k int) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", "0"}
	if c.trace {
		args[len(args)-1] = "1"
	}
	if c.smoke {
		args = append(args, "-smoke")
	}
	ok := true
	runs := make([]report, 0, k)
	for i := 0; i < k; i++ {
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if _, exited := err.(*exec.ExitError); err != nil && !exited {
			return false, err
		}
		ok = ok && err == nil
		if k == 1 {
			fmt.Printf("== %s\n%s", name, out)
			continue
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r report
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return false, fmt.Errorf("%s run %d printed no result: %w", name, i, err)
		}
		runs = append(runs, r)
		fmt.Fprintf(os.Stderr, "bench: %s run %d/%d correct=%v attempted=%d failed=%d\n",
			name, i+1, k, r.Correct, r.Attempted, r.Failed)
	}
	if k > 1 {
		printSpread(name, runs, c.trace)
	}
	return ok, nil
}

// printSpread prints the A/A table of several same-code runs.
func printSpread(name string, runs []report, traced bool) {
	fmt.Printf("== %s: %d same-code runs\n", name, len(runs))
	fmt.Printf("%-32s %-6s %14s %14s %14s %8s %8s\n", "metric", "unit", "min", "median", "max", "gap", "bound")
	names, _ := declared(traced)
	for _, n := range names {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.Metrics[n].Value
		}
		lo, mid, hi := quantile(xs, 0), quantile(xs, 0.5), quantile(xs, 1)
		gap := 0.0
		if mid != 0 {
			gap = (hi - lo) / mid
		}
		fmt.Printf("%-32s %-6s %14.6g %14.6g %14.6g %7.1f%% %7.1f%%\n",
			n, runs[0].Metrics[n].Unit, lo, mid, hi, 100*gap, 100*max(0.05, 1.5*gap))
	}
}
