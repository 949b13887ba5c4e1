package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/tensor"
)

// The zoo fixture is what the equivalence suites share, each piece computed
// once per test binary and keyed by its inputs: the compile of a (model,
// strategy, chip), the serial reference runs of a case, and the golden
// executor's output of a (model, weights, input). Every zoo run uses the
// weights of seed zooWeights and the inputs of seeds zooInput, zooInput+1,
// …. Only results are kept: no session or weight table outlives the call
// that made it (vgg19's weights alone are 144 MB).
const (
	zooWeights = 1
	zooInput   = 2
	// zooLanes is the batch TestLaneEquivalence fills, and so the number
	// of serial references a default-chip case has.
	zooLanes = 8
)

// zooCase is one program of the equivalence suites: a zoo model compiled
// under a strategy for a chip.
type zooCase struct {
	model string
	strat compiler.Strategy
	cfg   arch.Config
}

func (c zooCase) String() string { return c.model + "/" + c.strat.String() }

// zooCases are the cases of every zoo model under every strategy at cfg,
// model by model. In -short and -race mode the four large benchmark DNNs
// are left out; the tiny networks still cover every operator lowering.
func zooCases(cfg arch.Config) []zooCase {
	large := map[string]bool{"resnet18": true, "vgg19": true, "mobilenetv2": true, "efficientnetb0": true}
	var cases []zooCase
	for _, name := range model.ZooNames() {
		if (testing.Short() || raceEnabled) && large[name] {
			continue
		}
		for _, strat := range []compiler.Strategy{
			compiler.StrategyGeneric, compiler.StrategyDuplication, compiler.StrategyDP,
		} {
			cases = append(cases, zooCase{name, strat, cfg})
		}
	}
	return cases
}

var (
	zooCompiles sync.Map // zooCase -> func() (*compiler.Compiled, error)
	zooRefs     sync.Map // zooRefKey -> func() ([]*Result, error)
	zooOutputs  sync.Map // zooOutputKey -> func() (tensor.Tensor, error)
)

type zooRefKey struct {
	zooCase
	n int
}

type zooOutputKey struct {
	model          string
	weights, input uint64
}

// memo returns m's value for key, computed by f for the first caller;
// concurrent callers of the key wait for that one computation.
func memo[K comparable, V any](m *sync.Map, key K, f func() (V, error)) (V, error) {
	v, _ := m.LoadOrStore(key, sync.OnceValues(f))
	return v.(func() (V, error))()
}

// compiled returns the case's program.
func (c zooCase) compiled(t *testing.T) *compiler.Compiled {
	t.Helper()
	compiled, err := memo(&zooCompiles, c, func() (*compiler.Compiled, error) {
		cfg := c.cfg
		return compiler.Compile(model.Zoo(c.model), &cfg, compiler.Options{Strategy: c.strat})
	})
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// zooInputs returns g's first n zoo inputs.
func zooInputs(g *model.Graph, n int) []tensor.Tensor {
	inputs := make([]tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = model.SeededInput(g.Nodes[0].OutShape, uint64(zooInput+i))
	}
	return inputs
}

// refs returns the case's serial references on its first n inputs: each
// input run alone, in order, on one session's one chip — input 0 on a new
// chip, every later one on that chip reset (the reuse path
// TestSessionPooledRunsMatchFreshRuns holds to fresh chips).
func (c zooCase) refs(t *testing.T, n int) []*Result {
	t.Helper()
	compiled := c.compiled(t)
	refs, err := memo(&zooRefs, zooRefKey{c, n}, func() ([]*Result, error) {
		g := compiled.Graph
		s, err := NewSession(compiled, model.NewSeededWeights(g, zooWeights), Options{MaxPooledChips: 1})
		if err != nil {
			return nil, err
		}
		defer s.Close()
		refs := make([]*Result, n)
		for i, in := range zooInputs(g, n) {
			if refs[i], err = s.Infer(context.Background(), in); err != nil {
				return nil, fmt.Errorf("serial reference %d: %w", i, err)
			}
		}
		return refs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// assertMatchesExecute requires a run of zoo input i to produce the golden
// executor's output, model.Execute of the graph on the zoo weights and that
// input, byte for byte. The output node depends on the graph alone, so the
// executor runs once per (model, input) whatever chip and strategy ran.
func assertMatchesExecute(t *testing.T, label string, compiled *compiler.Compiled, i int, res *Result) {
	t.Helper()
	g := compiled.Graph
	key := zooOutputKey{g.Name, zooWeights, uint64(zooInput + i)}
	want, err := memo(&zooOutputs, key, func() (tensor.Tensor, error) {
		outs, err := model.Execute(g, model.SeededInput(g.Nodes[0].OutShape, key.input), model.NewSeededWeights(g, key.weights))
		if err != nil {
			return tensor.Tensor{}, err
		}
		return outs[compiled.OutputNode], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Data, res.Output.Data) {
		t.Errorf("%s: output differs from model.Execute", label)
	}
}
