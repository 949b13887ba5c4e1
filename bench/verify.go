package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cimflow"
	"cimflow/internal/model"
)

// knownCycles are the simulated cycle counts of the two warm workloads'
// programs at the default architecture, as BENCH_9.json and BENCH_10.json
// record them. Control flow is data-independent, so they hold at any seed;
// a compiler change that moves them is meant to fail here and re-baseline.
var knownCycles = map[string]int64{
	"resnet18/generic@mg8-flit8":    1772322,
	"mobilenetv2/generic@mg8-flit8": 3658686,
}

// programKey names a (model, strategy, architecture) program.
func programKey(modelName string, strategy cimflow.Strategy, cfg *cimflow.Config) string {
	return fmt.Sprintf("%s/%v@mg%d-flit%d", modelName, strategy, cfg.Core.MacrosPerGroup, cfg.Chip.NoCFlitBytes)
}

// verifier checks every operation outside the timed region: the output
// byte for byte against the golden executor's, and that one program always
// reports the same simulated cycles. A failed or wrong operation counts as
// failed; a determinism violation makes the whole run incorrect.
type verifier struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	violations []string
	stats      map[string]*cimflow.Stats // first Stats seen per program
}

func newVerifier() *verifier { return &verifier{stats: make(map[string]*cimflow.Stats)} }

// op records one operation's outcome and reports whether it passed.
func (v *verifier) op(program string, err error, res *cimflow.Result, want cimflow.Tensor) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.attempted++
	if err != nil {
		v.failed++
		v.violate("%s: %v", program, err)
		return false
	}
	if !sameTensor(res.Output, want) {
		v.failed++
		v.violate("%s: output differs from the golden executor's", program)
		return false
	}
	first, seen := v.stats[program]
	if !seen {
		v.stats[program] = res.Stats
		if want, ok := knownCycles[program]; ok && res.Stats.Cycles != want {
			v.violate("%s: %d cycles, BENCH_9/10.json record %d", program, res.Stats.Cycles, want)
		}
	} else if first.Cycles != res.Stats.Cycles {
		v.violate("%s: %d cycles, an earlier op of the same program reported %d", program, res.Stats.Cycles, first.Cycles)
	}
	return true
}

// violate records a message, keeping the first few: one cause usually
// repeats on every op.
func (v *verifier) violate(format string, args ...any) {
	if len(v.violations) < 8 {
		v.violations = append(v.violations, fmt.Sprintf(format, args...))
	}
}

// simTotals sums simulated cycles and energy over the programs seen, in
// sorted key order so the float sum is reproducible.
func (v *verifier) simTotals(only func(program string) bool) (cycles int64, energyMJ float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range sortedKeys(v.stats) {
		if only == nil || only(k) {
			cycles += v.stats[k].Cycles
			energyMJ += v.stats[k].EnergyMJ()
		}
	}
	return cycles, energyMJ
}

func sameTensor(a, b cimflow.Tensor) bool {
	if a.H != b.H || a.W != b.W || a.C != b.C || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// golden computes the reference output of each input with the golden
// executor and the seed's weights, spread over the host's cores, and
// returns the mean cost of one reference execution. It is the benchmark's
// own verification cost and stays out of setup_s.
func golden(ctx context.Context, g *cimflow.Graph, seed uint64, inputs []cimflow.Tensor) ([]cimflow.Tensor, time.Duration, error) {
	// The compiler reads the network output from the producer of any
	// trailing flatten, so the reference is that node's tensor.
	outNode := g.Output()
	for g.Nodes[outNode].Op == model.OpFlatten {
		outNode = g.Nodes[outNode].Inputs[0]
	}
	outs := make([]cimflow.Tensor, len(inputs))
	errs := make([]error, len(inputs))
	costs := make([]time.Duration, len(inputs))
	ws := model.NewSeededWeights(g, seed)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if errs[i] = ctx.Err(); errs[i] != nil {
				return
			}
			t0 := time.Now()
			refs, err := model.Execute(g, inputs[i], ws)
			costs[i] = time.Since(t0)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = refs[outNode]
		}()
	}
	wg.Wait()
	var total time.Duration
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("golden %s: %w", g.Name, err)
		}
		total += costs[i]
	}
	return outs, total / time.Duration(max(len(inputs), 1)), nil
}

// seededInputs returns n deterministic inputs of a shape; the seed drives
// every one of them.
func seededInputs(shape cimflow.Shape, seed uint64, n int) []cimflow.Tensor {
	in := make([]cimflow.Tensor, n)
	for i := range in {
		in[i] = cimflow.SeededInput(shape, seed*1_000_003+uint64(i)+1)
	}
	return in
}
