package artifact

import (
	"context"
	"reflect"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/model"
)

// TestArtifactRoundTripDifferential is the subsystem's end-to-end proof:
// for every zoo model under every strategy, a compile that went through
// encode→decode must simulate bit-exactly like the fresh compile — same
// output tensor, cycles, instruction count, MACs, full energy breakdown,
// per-core stats and NoC traffic. Anything the codec dropped or the
// decoder failed to re-derive (geometries, plan indexes, predecoded
// micro-ops) shows up here as a divergence. In -short and -race modes the
// four large benchmark DNNs are skipped; the tiny networks still cover
// every operator lowering.
func TestArtifactRoundTripDifferential(t *testing.T) {
	cfg := arch.DefaultConfig()
	large := map[string]bool{"resnet18": true, "vgg19": true, "mobilenetv2": true, "efficientnetb0": true}
	for _, name := range model.ZooNames() {
		if (testing.Short() || raceEnabled) && large[name] {
			continue
		}
		g := model.Zoo(name)
		for _, strat := range []compiler.Strategy{
			compiler.StrategyGeneric, compiler.StrategyDuplication, compiler.StrategyDP,
		} {
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				t.Parallel()
				opt := compiler.Options{Strategy: strat}
				fresh, err := compiler.Compile(g, &cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				data, err := Encode(fresh, opt)
				if err != nil {
					t.Fatal(err)
				}
				loaded, _, err := Decode(data)
				if err != nil {
					t.Fatal(err)
				}

				ws := model.NewSeededWeights(g, 1)
				input := model.SeededInput(g.Nodes[0].OutShape, 2)
				infer := func(c *compiler.Compiled) (*core.Result, error) {
					s, err := core.NewSession(c, ws, core.Options{})
					if err != nil {
						return nil, err
					}
					defer s.Close()
					return s.Infer(context.Background(), input)
				}
				want, err := infer(fresh)
				if err != nil {
					t.Fatalf("fresh compile: %v", err)
				}
				got, err := infer(loaded)
				if err != nil {
					t.Fatalf("decoded artifact: %v", err)
				}

				if !reflect.DeepEqual(want.Output.Data, got.Output.Data) {
					t.Error("output tensors differ")
				}
				if want.Stats.Cycles != got.Stats.Cycles {
					t.Errorf("cycles: fresh %d, decoded %d", want.Stats.Cycles, got.Stats.Cycles)
				}
				if want.Stats.Instructions != got.Stats.Instructions {
					t.Errorf("instructions: fresh %d, decoded %d",
						want.Stats.Instructions, got.Stats.Instructions)
				}
				if want.Stats.MACs != got.Stats.MACs {
					t.Errorf("MACs: fresh %d, decoded %d", want.Stats.MACs, got.Stats.MACs)
				}
				if want.Stats.Energy != got.Stats.Energy {
					t.Errorf("energy breakdown differs:\nfresh   %+v\ndecoded %+v",
						want.Stats.Energy, got.Stats.Energy)
				}
				if !reflect.DeepEqual(want.Stats.Cores, got.Stats.Cores) {
					for i := range want.Stats.Cores {
						if !reflect.DeepEqual(want.Stats.Cores[i], got.Stats.Cores[i]) {
							t.Errorf("core %d stats differ:\nfresh   %+v\ndecoded %+v",
								i, want.Stats.Cores[i], got.Stats.Cores[i])
							break
						}
					}
				}
				if want.Stats.NoCBytes != got.Stats.NoCBytes ||
					want.Stats.NoCByteHops != got.Stats.NoCByteHops ||
					want.Stats.GlobalBytes != got.Stats.GlobalBytes {
					t.Error("NoC traffic stats differ")
				}
			})
		}
	}
}
