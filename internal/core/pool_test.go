package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// idleChip returns the idle chip of s's pool last staged for s; it stays in
// the pool.
func idleChip(t testing.TB, s *Session) *sim.Chip {
	t.Helper()
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	for _, c := range s.pool.idle {
		if c.owner == s.id {
			return c.ch
		}
	}
	t.Fatal("no idle chip staged for the session")
	return nil
}

// TestPoolMatchesFreshChips: one pool of one chip runs a sequence of
// programs, each through a session of its own — models and strategies whose
// global layouts shrink and grow, MG sizes 8 -> 16 -> 4 -> 16 and flit widths
// 8 -> 16, a run aborted at the cycle limit just before the architecture
// changes — and every run equals the first run of a fresh session, outputs
// and full Stats or error text. After each run the pool's chip holds in
// global memory, as long as the layout, byte for byte what the fresh chip
// holds. The pool builds one chip and restages it.
func TestPoolMatchesFreshChips(t *testing.T) {
	def := arch.DefaultConfig()
	mg16, mg4 := def.WithMacrosPerGroup(16), def.WithMacrosPerGroup(4)
	flit16 := mg16.WithFlitBytes(16)
	dp, generic := compiler.StrategyDP, compiler.StrategyGeneric
	steps := []struct {
		model string
		strat compiler.Strategy
		cfg   *arch.Config
		limit int64
	}{
		{"tinyresnet", dp, &def, 0},
		{"tinymlp", generic, &def, 0},
		{"tinycnn", dp, &def, 200},
		{"tinycnn", dp, &mg16, 0},
		{"tinymobile", generic, &mg4, 0},
		{"tinyresnet", dp, &mg16, 0},
		{"tinymlp", dp, &mg16, 0},
		{"tinycnn", generic, &flit16, 0},
	}
	ctx := context.Background()
	pool := NewPool(1)
	var first *sim.Chip
	for i, st := range steps {
		label := fmt.Sprintf("step %d %s/%v/mg%d", i, st.model, st.strat, st.cfg.Core.MacrosPerGroup)
		g := model.Zoo(st.model)
		compiled, err := compiler.Compile(g, st.cfg, compiler.Options{Strategy: st.strat})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ws := model.NewSeededWeights(g, 1)
		input := model.SeededInput(g.Nodes[0].OutShape, uint64(2+i))
		opt := Options{CycleLimit: st.limit}

		s, err := pool.NewSession(compiled, ws, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Infer(ctx, input)
		fresh, ferr := NewSession(compiled, ws, Options{CycleLimit: st.limit, MaxPooledChips: 1})
		if ferr != nil {
			t.Fatal(ferr)
		}
		want, wantErr := fresh.Infer(ctx, input)
		if st.limit != 0 {
			if !errors.Is(err, sim.ErrCycleLimit) || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: pooled error %v, fresh error %v, want the same cycle-limit abort", label, err, wantErr)
			}
		} else {
			if err != nil || wantErr != nil {
				t.Fatalf("%s: pooled %v, fresh %v", label, err, wantErr)
			}
			assertResultsEqual(t, label, want, got)
		}

		ch := idleChip(t, s)
		if i == 0 {
			first = ch
		} else if ch != first {
			t.Errorf("%s: the pool built another chip", label)
		}
		// Both chips hold global memory as long as the layout. That a shrink
		// zeroes what it drops, so that a later larger layout grows into
		// zeros, is TestLazyBackingMatchesZeros's to see.
		a, err := ch.ReadGlobal(0, compiled.GlobalBytes())
		if err != nil {
			t.Fatal(err)
		}
		b, err := idleChip(t, fresh).ReadGlobal(0, compiled.GlobalBytes())
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(a, b); i >= 0 {
			t.Errorf("%s: global byte %d is %#x on the pool's chip, %#x on a fresh one (layout %d bytes)",
				label, i, a[i], b[i], compiled.GlobalBytes())
		}
	}
}

// poolCounted fails t unless every one of pool's want live chips is idle and
// pooled once.
func poolCounted(t *testing.T, pool *Pool, step string, want int) {
	t.Helper()
	pool.mu.Lock()
	defer pool.mu.Unlock()
	seen := make(map[*sim.Chip]bool)
	for _, c := range pool.idle {
		if seen[c.ch] {
			t.Fatalf("after %s: a chip is pooled twice", step)
		}
		seen[c.ch] = true
	}
	if pool.live != len(pool.idle) || pool.live != want {
		t.Fatalf("after %s: %d live chips, %d idle, want %d of each", step, pool.live, len(pool.idle), want)
	}
}

// TestPoolFailuresGiveSlotsBack: every way an acquire or a run fails — an
// input staging error, a chip that cannot be retargeted or built, a run
// aborted at its cycle limit, a wait for a chip cancelled by its context —
// gives the pool its slot back. Afterwards the pool still runs bound
// inferences at once, each on a chip of its own, a further one must wait, and
// every chip is counted once.
func TestPoolFailuresGiveSlotsBack(t *testing.T) {
	const bound = 2
	cfg := arch.DefaultConfig()
	g := model.Zoo("tinymlp")
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	ws := model.NewSeededWeights(g, 1)
	input := model.SeededInput(g.Nodes[0].OutShape, 2)
	pool := NewPool(bound)
	session := func(opt Options) *Session {
		s, err := pool.NewSession(compiled, ws, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	s := session(Options{})
	counted := func(step string, want int) {
		t.Helper()
		poolCounted(t, pool, step, want)
	}

	s.testStageErr = errors.New("forced staging error")
	if _, err := s.Infer(ctx, input); err == nil {
		t.Fatal("a failing input staging succeeded")
	}
	s.testStageErr = nil
	counted("a staging error", 1)

	// An invalid architecture fails Retarget on the idle chip, then NewChip.
	bad := session(Options{})
	bad.cfg.Chip.CoreRows = 0
	for _, step := range []string{"a failed retarget", "a failed build"} {
		if _, err := bad.Infer(ctx, input); err == nil {
			t.Fatalf("%s succeeded", step)
		}
		counted(step, 0)
	}

	limited := session(Options{CycleLimit: 10})
	if _, err := limited.Infer(ctx, input); !errors.Is(err, sim.ErrCycleLimit) {
		t.Fatalf("run under a 10-cycle limit = %v, want a cycle-limit abort", err)
	}
	counted("a run error", 1)

	held := make([]*pooled, bound)
	for i := range held {
		if held[i], err = s.acquire(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	waiting, stop := context.WithCancel(ctx)
	errc := make(chan error)
	go func() {
		_, err := s.acquire(waiting, 1)
		errc <- err
	}()
	stop()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire on a full pool = %v, want context.Canceled", err)
	}
	for _, c := range held {
		s.release(c)
	}
	counted("a cancelled wait", bound)

	// A cancelled context fails an acquire only if it has to wait.
	for i := range held {
		if held[i], err = s.acquire(cancelled, 1); err != nil {
			t.Fatalf("acquire %d of %d: %v", i+1, bound, err)
		}
	}
	if held[0].ch == held[1].ch {
		t.Fatal("two acquires hold one chip")
	}
	if _, err := s.acquire(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire past the bound = %v, want to wait", err)
	}
	for _, c := range held {
		s.release(c)
	}
	counted("the full pool", bound)
	want, err := freshRun(ctx, compiled, ws, input)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.InferBatch(ctx, []tensor.Tensor{input, input})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res {
		assertResultsEqual(t, fmt.Sprintf("run %d after the failures", i), want, got)
	}
	counted("the last runs", bound)
}

// TestLaneGroupFailuresGiveSlotsBack: a lane-batched InferBatch (12 inputs,
// groups of 4) that fails part-way returns the root cause to its caller —
// one group's run aborted at its cycle limit on the parallel path, or ctx
// cancelled in the second group's run on the serial one — and gives every
// chip back.
func TestLaneGroupFailuresGiveSlotsBack(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.Zoo("tinymlp")
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	ws := model.NewSeededWeights(g, 1)
	inputs := make([]tensor.Tensor, 12)
	for i := range inputs {
		inputs[i] = model.SeededInput(g.Nodes[0].OutShape, uint64(i))
	}
	ctx := context.Background()
	session := func(bound int) (*Pool, *Session) {
		pool := NewPool(bound)
		s, err := pool.NewSession(compiled, ws, Options{SimLanes: 4})
		if err != nil {
			t.Fatal(err)
		}
		return pool, s
	}

	t.Run("cycle limit", func(t *testing.T) {
		// Two workers, one chip free: the limited chip runs a group while
		// the other worker waits for a chip until the failure cancels it.
		pool, s := session(2)
		limited, err := s.acquire(ctx, 4)
		if err != nil {
			t.Fatal(err)
		}
		limited.ch.CycleLimit = 10
		held, err := s.acquire(ctx, 4)
		if err != nil {
			t.Fatal(err)
		}
		s.release(limited)
		if _, err := s.InferBatch(ctx, inputs); !errors.Is(err, sim.ErrCycleLimit) {
			t.Fatalf("InferBatch = %v, want the cycle-limit abort", err)
		}
		s.release(held)
		poolCounted(t, pool, "a group's cycle-limit abort", 2)
	})

	t.Run("cancelled", func(t *testing.T) {
		// One chip, so the groups run in turn on ctx itself. Count the polls
		// of one group, then cancel at the second poll of the second: the
		// run's, on the chip the group holds.
		pool, s := session(1)
		probe := &cancelAfter{Context: ctx, n: 1 << 62}
		if _, err := s.InferBatch(probe, inputs[:4]); err != nil {
			t.Fatal(err)
		}
		res, err := s.InferBatch(&cancelAfter{Context: ctx, n: probe.polls.Load() + 2}, inputs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("InferBatch = %v, want context.Canceled", err)
		}
		if res[0] == nil || res[4] != nil {
			t.Fatal("the cancellation did not land in the second group")
		}
		poolCounted(t, pool, "a cancellation in the second group", 1)
	})
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
