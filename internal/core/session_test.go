package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// TestSessionPooledRunsMatchFreshRuns: a session reusing one pooled chip
// must run each of several inputs exactly as a fresh chip does — output,
// cycles, instructions, MACs, energy breakdown, per-core stats and NoC
// counters — and the first to the golden executor's output. The input
// changes from run to run, so state a reset chip kept from the last one
// would show.
func TestSessionPooledRunsMatchFreshRuns(t *testing.T) {
	compiled := zooCase{"tinyresnet", compiler.StrategyDP, arch.DefaultConfig()}.compiled(t)
	ws := model.NewSeededWeights(compiled.Graph, zooWeights)
	// MaxPooledChips=1 forces every inference after the first through the
	// Reset+ZeroGlobal reuse path.
	s, err := NewSession(compiled, ws, Options{MaxPooledChips: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i, input := range zooInputs(compiled.Graph, 4) {
		label := fmt.Sprintf("input seed %d", zooInput+i)
		got, err := s.Infer(ctx, input)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := Simulate(ctx, compiled, ws, input, Options{})
		if err != nil {
			t.Fatalf("%s fresh: %v", label, err)
		}
		assertResultsEqual(t, label, want, got)
		if i == 0 {
			assertMatchesExecute(t, label, compiled, i, want)
		}
	}
	if s.PooledChips() != 1 {
		t.Errorf("pool holds %d chips, want 1", s.PooledChips())
	}
}

// TestSessionInferBatch: batch results must match individual inferences,
// in input order.
func TestSessionInferBatch(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyCNN()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	ws := model.NewSeededWeights(g, 7)
	s, err := NewSession(compiled, ws, Options{MaxPooledChips: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var inputs []tensor.Tensor
	for seed := uint64(10); seed < 16; seed++ {
		inputs = append(inputs, model.SeededInput(g.Nodes[0].OutShape, seed))
	}
	batch, err := s.InferBatch(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		want, err := s.Infer(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] == nil {
			t.Fatalf("batch result %d is nil", i)
		}
		if !bytes.Equal(int8Bytes(batch[i].Output), int8Bytes(want.Output)) {
			t.Errorf("batch result %d differs from individual inference", i)
		}
	}
}

// TestSessionInferCancelled: an already-cancelled context must fail fast,
// and InferBatch must propagate the cancellation.
func TestSessionInferCancelled(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyMLP()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(compiled, model.NewSeededWeights(g, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := model.SeededInput(g.Nodes[0].OutShape, 2)
	if _, err := s.Infer(ctx, input); !errors.Is(err, context.Canceled) {
		t.Errorf("Infer = %v, want context.Canceled", err)
	}
	if _, err := s.InferBatch(ctx, []tensor.Tensor{input, input}); !errors.Is(err, context.Canceled) {
		t.Errorf("InferBatch = %v, want context.Canceled", err)
	}
}

// TestSessionRejectsBadInput: a mis-shaped tensor is rejected before any
// chip is touched.
func TestSessionRejectsBadInput(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyMLP()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(compiled, model.NewSeededWeights(g, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(context.Background(), tensor.New(1, 1, 1)); err == nil {
		t.Error("Infer accepted a mis-shaped input")
	}
}

// TestEarlyErrorKeepsPooledChip: an inference that fails before its chip
// runs — scratch zeroing or lane set-up in acquire, input staging after it —
// hands the pooled chip back, so the next request reuses it instead of
// rebuilding one, and that request's result is that of a fresh run.
func TestEarlyErrorKeepsPooledChip(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyMLP()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	input := model.SeededInput(g.Nodes[0].OutShape, 2)
	for _, c := range []struct {
		failing string
		infer   func(s *Session) error // fails at the named step, leaves s usable
	}{
		{"ZeroGlobal", func(s *Session) error {
			scratch := s.scratch
			defer func() { s.scratch = scratch }()
			s.scratch = append(scratch[:len(scratch):len(scratch)], [2]int{-1, 1}) // no such range
			_, err := s.Infer(ctx, input)
			return err
		}},
		{"SetLanes", func(s *Session) error {
			_, err := s.inferLanes(ctx, []tensor.Tensor{input, input}) // a one-lane chip
			return err
		}},
		{"InitGlobalLane", func(s *Session) error {
			s.testStageErr = errors.New("forced staging error")
			defer func() { s.testStageErr = nil }()
			_, err := s.Infer(ctx, input)
			return err
		}},
	} {
		t.Run(c.failing, func(t *testing.T) {
			s, err := NewSession(compiled, model.NewSeededWeights(g, 1), Options{MaxPooledChips: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ref, err := s.Infer(ctx, input)
			if err != nil {
				t.Fatal(err)
			}
			pooled := idleChip(t, s)
			if err := c.infer(s); err == nil {
				t.Fatalf("inference with a failing %s succeeded", c.failing)
			}
			if n := s.PooledChips(); n != 1 {
				t.Fatalf("PooledChips = %d after a failed %s, want 1", n, c.failing)
			}
			got, err := s.Infer(ctx, input)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, "after failed "+c.failing, ref, got)
			if after := idleChip(t, s); after != pooled {
				t.Errorf("the pool holds a rebuilt chip after a failed %s", c.failing)
			}
		})
	}
}

// TestSessionClose: Close drops the session's pooled chips, further use
// fails with the typed ErrClosed, a chip released after Close is dropped,
// and Close is idempotent.
func TestSessionClose(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyMLP()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(compiled, model.NewSeededWeights(g, 1), Options{MaxPooledChips: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	input := model.SeededInput(g.Nodes[0].OutShape, 2)
	if _, err := s.Infer(ctx, input); err != nil {
		t.Fatal(err)
	}
	if s.PooledChips() == 0 {
		t.Fatal("no chip pooled after a successful Infer")
	}
	held, err := s.acquire(ctx, 1) // in flight across Close
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.PooledChips(); n != 0 {
		t.Errorf("PooledChips() = %d after Close, want 0", n)
	}
	if !s.Closed() {
		t.Error("Closed() = false after Close")
	}
	if _, err := s.Infer(ctx, input); !errors.Is(err, ErrClosed) {
		t.Errorf("Infer after Close = %v, want ErrClosed", err)
	}
	if _, err := s.InferBatch(ctx, []tensor.Tensor{input}); !errors.Is(err, ErrClosed) {
		t.Errorf("InferBatch after Close = %v, want ErrClosed", err)
	}
	// A chip finishing its run after Close must be dropped, not re-pooled.
	s.release(held)
	if n := s.pool.Live(); n != 0 {
		t.Errorf("release after Close kept a chip: %d live", n)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestSessionInferBatchN: explicit parallelism caps produce the same
// results as the default pool-wide fan-out, byte for byte.
func TestSessionInferBatchN(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyMLP()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(compiled, model.NewSeededWeights(g, 3), Options{MaxPooledChips: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var inputs []tensor.Tensor
	for seed := uint64(20); seed < 25; seed++ {
		inputs = append(inputs, model.SeededInput(g.Nodes[0].OutShape, seed))
	}
	ref, err := s.InferBatch(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 3, 0} {
		got, err := s.InferBatchN(ctx, inputs, parallel)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range inputs {
			if !bytes.Equal(int8Bytes(got[i].Output), int8Bytes(ref[i].Output)) {
				t.Errorf("parallel=%d: result %d differs from default fan-out", parallel, i)
			}
		}
	}
}

func int8Bytes(t tensor.Tensor) []byte {
	out := make([]byte, len(t.Data))
	for i, v := range t.Data {
		out[i] = byte(v)
	}
	return out
}

// cancelAfter is a context whose Err turns Canceled at the n-th poll. The
// scheduler polls every few thousand steps, so a run under it is abandoned
// part-way at the same instruction on any host.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestPooledResetDifferential drives one pooled 8-lane chip through shrinking
// and regrowing occupancies with fresh inputs every time, and through runs
// abandoned in the middle, and holds every lane of every batch — output and
// full Stats — to a fresh-chip run of its input. Chip.Reset clears only what
// the earlier runs touched, in the lanes they ran; whatever it missed would
// be another inference's bytes under this one.
//
// A run is abandoned two ways. The cycle limit, set on the pooled chip to
// half the model's cycle count, stops it at the same cycle on any host.
// Cancellation does too under cancelAfter, but only in a model that outlasts
// a poll interval: a tiny model's whole run (under 8,200 instructions) fits
// inside one, so it can be cancelled before it starts or not at all, and
// those steps are skipped for it.
func TestPooledResetDifferential(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, tc := range []struct {
		model string
		strat compiler.Strategy
	}{{"tinyresnet", compiler.StrategyDP}, {"mobilenetv2", compiler.StrategyGeneric}} {
		if (testing.Short() || raceEnabled) && tc.model == "mobilenetv2" {
			continue
		}
		t.Run(tc.model+"/"+tc.strat.String(), func(t *testing.T) {
			t.Parallel()
			g := model.Zoo(tc.model)
			compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: tc.strat})
			if err != nil {
				t.Fatal(err)
			}
			ws := model.NewSeededWeights(g, 1)
			s, err := NewSession(compiled, ws, Options{MaxPooledChips: 1, SimLanes: 8})
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(100)
			var ran *sim.Stats // of the first batch: how long the model runs
			// checkPool looks at the pooled chip's payload accounting as the
			// step left it, with no Reset of its own. A finished run drains
			// every mailbox, so each buffer the chip ever allocated is back
			// in its size class; that includes the ones an earlier abort
			// left undelivered, which only acquire's Reset gives back. An
			// aborted run must leave some out, or the step after it proves
			// nothing about that Reset.
			checkPool := func(label string, aborted bool) {
				switch err := idleChip(t, s).CheckPayloadPool(); {
				case aborted && err == nil:
					t.Fatalf("%s: no payload buffer left out by the aborted run", label)
				case !aborted && err != nil:
					t.Fatalf("%s: %v", label, err)
				}
			}
			for step, st := range []struct {
				lanes int
				abort string
			}{{8, ""}, {2, ""}, {8, "limit"}, {8, ""}, {8, "cancel"}, {2, ""}, {8, ""}} {
				inputs := make([]tensor.Tensor, st.lanes)
				for i := range inputs {
					seed++
					inputs[i] = model.SeededInput(g.Nodes[0].OutShape, seed)
				}
				label := fmt.Sprintf("step %d lanes %d %s", step, st.lanes, st.abort)
				switch st.abort {
				case "limit":
					idleChip(t, s).CycleLimit = ran.Cycles / 2
					if _, err := s.InferBatch(context.Background(), inputs); !errors.Is(err, sim.ErrCycleLimit) {
						t.Fatalf("%s: InferBatch = %v, want a cycle-limit abort", label, err)
					}
					idleChip(t, s).CycleLimit = 0
					checkPool(label, true)
					continue
				case "cancel":
					if ran.Instructions < 1<<20 {
						continue
					}
					// Polls 1 and 2 are the entry checks of the session and
					// of Run; the scheduler's follow every 8192 steps.
					_, err := s.InferBatch(&cancelAfter{Context: context.Background(), n: 5}, inputs)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: InferBatch = %v, want context.Canceled", label, err)
					}
					checkPool(label, true)
					continue
				}
				res, err := s.InferBatch(context.Background(), inputs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ran = res[0].Stats
				checkPool(label, false)
				for l, in := range inputs {
					fresh, err := Simulate(context.Background(), compiled, ws, in, Options{})
					if err != nil {
						t.Fatalf("%s: fresh chip: %v", label, err)
					}
					assertResultsEqual(t, fmt.Sprintf("%s lane %d", label, l), fresh, res[l])
				}
			}
			if n := s.PooledChips(); n != 1 {
				t.Errorf("pool holds %d chips, want the one every run reused", n)
			}
			if n := s.LaneFallbacks(); n != 0 {
				t.Errorf("%d unexpected divergence fallbacks", n)
			}
			s.Close()
		})
	}
}
