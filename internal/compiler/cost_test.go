package compiler

import (
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

func costModelFor(name string) (*costModel, []*unit) {
	g := model.Zoo(name)
	cfg := arch.DefaultConfig()
	units, err := condense(g)
	if err != nil {
		panic(err)
	}
	return newCostModel(g, &cfg, units), units
}

func TestUnitCostDecreasesWithReplication(t *testing.T) {
	cm, units := costModelFor("resnet18")
	for _, u := range units {
		if u.anchor.OutShape.H < 2 {
			continue
		}
		c1 := cm.unitCost(u, 1)
		c2 := cm.unitCost(u, 2)
		if c1 <= 0 {
			t.Errorf("%s: non-positive cost %f", u.anchor.Name, c1)
		}
		if c2 > c1 {
			t.Errorf("%s: duplication increased cost %f -> %f", u.anchor.Name, c1, c2)
		}
	}
}

func TestUnitMinCoresPositiveAndBounded(t *testing.T) {
	for _, name := range []string{"resnet18", "vgg19", "mobilenetv2", "efficientnetb0"} {
		cm, units := costModelFor(name)
		for _, u := range units {
			mc := cm.unitMinCores(u)
			if mc < 1 {
				t.Errorf("%s/%s: minCores %d", name, u.anchor.Name, mc)
			}
			if mr := cm.unitMaxReplicas(u); mr < 1 {
				t.Errorf("%s/%s: maxReplicas %d", name, u.anchor.Name, mr)
			}
		}
	}
}

func TestWeightLoadCyclesScalesWithReplicas(t *testing.T) {
	cm, units := costModelFor("resnet18")
	ones := make([]int, len(units))
	twos := make([]int, len(units))
	for i := range units {
		ones[i], twos[i] = 1, 2
	}
	a := cm.weightLoadCycles(units, ones)
	b := cm.weightLoadCycles(units, twos)
	if b != 2*a {
		t.Errorf("doubling replicas should double load cycles: %f vs %f", a, b)
	}
	if a <= 0 {
		t.Error("zero weight-load cost")
	}
}

func TestBoundaryCyclesZeroWhenAllInStage(t *testing.T) {
	cm, units := costModelFor("tinymlp")
	all := bmask{}
	for _, u := range units {
		all = all.or(bit(u.id))
	}
	// The graph input always crosses; everything else is in-stage.
	full := cm.boundaryCycles(units, all)
	inputBytes := float64(cm.g.Nodes[0].OutShape.Elems())
	want := 2 * inputBytes / float64(cm.cfg.Chip.GlobalMemBandwidth)
	if full != want {
		t.Errorf("boundary cost %f, want %f (input only)", full, want)
	}
}

func TestMapStageInfeasibleWhenTooManyUnits(t *testing.T) {
	cm, units := costModelFor("vgg19")
	all := bmask{}
	for _, u := range units {
		all = all.or(bit(u.id))
	}
	// All of VGG19 in one stage cannot fit 64 cores.
	if _, ok := cm.mapStage(units, cm.cfg.NumCores(), all, false); ok {
		t.Error("mapStage accepted all of VGG19 in one stage")
	}
	// A single unit always fits (weight swapping if needed).
	if _, ok := cm.mapStage(units[:1], cm.cfg.NumCores(), units[0].mask, false); !ok {
		t.Error("mapStage rejected a single unit")
	}
}

func TestMapStageDuplicationUsesFreeCores(t *testing.T) {
	cm, units := costModelFor("mobilenetv2")
	sub := units[:4]
	mask := bmask{}
	for _, u := range sub {
		mask = mask.or(bit(u.id))
	}
	plain, ok := cm.mapStage(sub, cm.cfg.NumCores(), mask, false)
	if !ok {
		t.Fatal("plain mapping failed")
	}
	dup, ok := cm.mapStage(sub, cm.cfg.NumCores(), mask, true)
	if !ok {
		t.Fatal("duplication mapping failed")
	}
	var plainReps, dupReps int
	for i := range sub {
		plainReps += plain.replicas[i]
		dupReps += dup.replicas[i]
	}
	if dupReps <= plainReps {
		t.Errorf("duplication did not add replicas: %d vs %d", dupReps, plainReps)
	}
	if dup.cycles > plain.cycles {
		t.Errorf("duplication increased estimated cost: %f vs %f", dup.cycles, plain.cycles)
	}
}

func TestGeometryPadsPartialChannels(t *testing.T) {
	g := model.TinyCNN() // conv2 has 16 output channels < 64 group channels
	cfg := arch.DefaultConfig()
	var conv *model.Node
	for _, n := range g.Nodes {
		if n.Name == "conv2" {
			conv = n
		}
	}
	gm := geometry(g, &cfg, conv)
	if gm.chanTiles != 1 {
		t.Errorf("chanTiles = %d, want 1 (16 chans pad into one 64-chan group)", gm.chanTiles)
	}
	if passes, err := gm.fit(gm.minCores, cfg.Core.NumMacroGroups); gm.minCores != 1 || passes != 1 || err != nil {
		t.Errorf("minCores/passes = %d/%d (%v), want 1/1", gm.minCores, passes, err)
	}
}

func TestShardChansGroupAligned(t *testing.T) {
	for _, tc := range []struct {
		cout, gc, n int
	}{{512, 64, 8}, {512, 64, 5}, {1000, 64, 3}, {64, 128, 2}, {100, 32, 4}} {
		shards := shardChans(tc.cout, tc.gc, tc.n)
		total := 0
		for i, s := range shards {
			if s[0]%tc.gc != 0 {
				t.Errorf("cout=%d gc=%d n=%d: shard %d starts at %d (not group aligned)",
					tc.cout, tc.gc, tc.n, i, s[0])
			}
			if s[1] <= 0 {
				t.Errorf("empty shard %d", i)
			}
			total += s[1]
		}
		if total != tc.cout {
			t.Errorf("cout=%d gc=%d n=%d: shards cover %d channels", tc.cout, tc.gc, tc.n, total)
		}
	}
}

func TestSplitRowsCoverExactly(t *testing.T) {
	for _, tc := range []struct{ h, n int }{{56, 4}, {7, 8}, {1, 1}, {224, 3}, {13, 5}} {
		ranges := splitRows(tc.h, tc.n)
		next := 0
		for _, r := range ranges {
			if r[0] != next {
				t.Errorf("h=%d n=%d: gap at %d", tc.h, tc.n, r[0])
			}
			if r[1] <= r[0] {
				t.Errorf("h=%d n=%d: empty range %v", tc.h, tc.n, r)
			}
			next = r[1]
		}
		if next != tc.h {
			t.Errorf("h=%d n=%d: covered %d rows", tc.h, tc.n, next)
		}
	}
}

func TestInputNeedFormulas(t *testing.T) {
	g := model.ResNet18()
	var maxpool *model.Node
	for _, n := range g.Nodes {
		if n.Op == model.OpMaxPool {
			maxpool = n
			break
		}
	}
	// maxpool 3x3 s2 p1 over 112 rows: output rows [0,2) need inputs
	// [-1,4) clipped to [0,4).
	lo, hi := inputNeed(maxpool, 0, 0, 2, 112)
	if lo != 0 || hi != 4 {
		t.Errorf("maxpool need = [%d,%d), want [0,4)", lo, hi)
	}
	// Last output row 55 needs rows [109, 112).
	lo, hi = inputNeed(maxpool, 0, 55, 56, 112)
	if lo != 109 || hi != 112 {
		t.Errorf("maxpool tail need = [%d,%d), want [109,112)", lo, hi)
	}
}
