package compiler

import (
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

func TestBitmask(t *testing.T) {
	a := bit(3).or(bit(70))
	if !a.has(3) || !a.has(70) || a.has(4) {
		t.Error("bit membership broken")
	}
	if a.count() != 2 {
		t.Errorf("count = %d, want 2", a.count())
	}
	b := a.or(bit(5))
	if !b.contains(a) || a.contains(b) {
		t.Error("contains broken")
	}
	d := b.diff(a)
	if !d.has(5) || d.count() != 1 {
		t.Error("diff broken")
	}
	got := b.members()
	want := []int{3, 5, 70}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("members = %v, want %v", got, want)
		}
	}
	if !(bmask{}).empty() || b.empty() {
		t.Error("empty broken")
	}
}

func TestRowTilesSmallSegments(t *testing.T) {
	// 3 kh segments of 192 bytes, 512-row macros: 2 segments fit per tile.
	tiles := rowTiles(3, 192, 512)
	if len(tiles) != 2 {
		t.Fatalf("got %d tiles, want 2", len(tiles))
	}
	if tiles[0].SegCount != 2 || tiles[0].Rows != 384 {
		t.Errorf("tile0 = %+v, want 2 segs 384 rows", tiles[0])
	}
	if tiles[1].Seg0 != 2 || tiles[1].SegCount != 1 || tiles[1].Rows != 192 {
		t.Errorf("tile1 = %+v", tiles[1])
	}
}

func TestRowTilesLargeSegments(t *testing.T) {
	// 3 kh segments of 1536 bytes: each segment splits into 3 tiles.
	tiles := rowTiles(3, 1536, 512)
	if len(tiles) != 9 {
		t.Fatalf("got %d tiles, want 9", len(tiles))
	}
	for i, tl := range tiles {
		if tl.Rows != 512 || tl.SegCount != 1 {
			t.Errorf("tile %d = %+v", i, tl)
		}
		if tl.Seg0 != i/3 || tl.Offset != (i%3)*512 {
			t.Errorf("tile %d placement = %+v", i, tl)
		}
	}
	// Total rows must cover the reduction exactly.
	total := 0
	for _, tl := range tiles {
		total += tl.Rows
	}
	if total != 3*1536 {
		t.Errorf("tiles cover %d rows, want %d", total, 3*1536)
	}
}

func TestRowTilesCoverProperty(t *testing.T) {
	for _, c := range []struct{ segs, bytes int }{
		{1, 32}, {1, 25088}, {3, 192}, {3, 1536}, {7, 21}, {5, 3360}, {3, 512}, {3, 672},
	} {
		tiles := rowTiles(c.segs, c.bytes, 512)
		total := 0
		for _, tl := range tiles {
			if tl.Rows <= 0 || tl.Rows > 512 {
				t.Errorf("segs=%d bytes=%d: tile rows %d out of range", c.segs, c.bytes, tl.Rows)
			}
			total += tl.Rows
		}
		if total != c.segs*c.bytes {
			t.Errorf("segs=%d bytes=%d: tiles cover %d, want %d", c.segs, c.bytes, total, c.segs*c.bytes)
		}
	}
}

func TestGeometryResNetConv(t *testing.T) {
	g := model.ResNet18()
	cfg := arch.DefaultConfig()
	// Find a 3x3 512->512 conv: rows 4608 -> 9 tiles; 512 chans -> 8 tiles.
	var conv *model.Node
	for _, n := range g.Nodes {
		if n.Op == model.OpConv && n.Cout == 512 && n.KH == 3 && g.InC(n) == 512 {
			conv = n
		}
	}
	if conv == nil {
		t.Fatal("no 512x512 conv found")
	}
	gm := geometry(g, &cfg, conv)
	if len(gm.tiles) != 9 {
		t.Errorf("row tiles = %d, want 9", len(gm.tiles))
	}
	if gm.chanTiles != 8 {
		t.Errorf("chan tiles = %d, want 8", gm.chanTiles)
	}
	// 16 MGs / 9 row tiles: one channel tile per core.
	if passes, err := gm.fit(gm.minCores, 16); gm.minCores != 8 || passes != 1 || err != nil {
		t.Errorf("minCores = %d passes = %d (%v), want 8/1", gm.minCores, passes, err)
	}
	if _, err := gm.fit(7, 16); err == nil {
		t.Error("two channel tiles of 9 row tiles fit 16 macro groups")
	}
}

func TestGeometryVGGFC1RequiresSwapping(t *testing.T) {
	g := model.VGG19()
	cfg := arch.DefaultConfig()
	var fc *model.Node
	for _, n := range g.Nodes {
		if n.Name == "fc1" {
			fc = n
		}
	}
	gm := geometry(g, &cfg, fc)
	if len(gm.tiles) != 49 {
		t.Errorf("fc1 row tiles = %d, want 49 (25088/512)", len(gm.tiles))
	}
	if passes, _ := gm.fit(gm.minCores, 16); passes != 4 { // ceil(49/16)
		t.Errorf("fc1 passes = %d, want 4", passes)
	}
	if gm.minCores != 64 { // 4096/64 channel tiles
		t.Errorf("fc1 minCores = %d, want 64", gm.minCores)
	}
}

func TestCondenseResNet(t *testing.T) {
	g := model.ResNet18()
	units, err := condense(g)
	if err != nil {
		t.Fatal(err)
	}
	// 20 convs + 1 fc = 21 anchors.
	if len(units) != 21 {
		t.Errorf("resnet18 condenses to %d units, want 21", len(units))
	}
	// Every unit's closure contains itself and its deps' closures.
	for _, u := range units {
		if !u.mask.has(u.id) {
			t.Errorf("unit %d closure misses itself", u.id)
		}
		for _, d := range u.deps {
			if !u.mask.contains(units[d].mask) {
				t.Errorf("unit %d closure misses dep %d closure", u.id, d)
			}
		}
	}
}

func TestCondenseAllZooModels(t *testing.T) {
	for _, name := range []string{"resnet18", "vgg19", "mobilenetv2", "efficientnetb0", "tinycnn", "tinymlp", "tinyresnet"} {
		units, err := condense(model.Zoo(name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(units) == 0 || len(units) > 128 {
			t.Errorf("%s: %d units", name, len(units))
		}
	}
}

func TestEnumerateClosuresChain(t *testing.T) {
	g := model.VGG19() // pure chain: closures = prefixes
	units, _ := condense(g)
	cs := enumerateClosures(units, 0)
	if len(cs.masks) != len(units)+1 {
		t.Errorf("chain closures = %d, want %d", len(cs.masks), len(units)+1)
	}
	if cs.capHit {
		t.Error("chain enumeration reported a cap hit")
	}
	if cs.enumerated != len(cs.masks) {
		t.Errorf("enumerated = %d, want %d", cs.enumerated, len(cs.masks))
	}
	// All must be downsets: every member's deps inside.
	for _, m := range cs.masks {
		for _, id := range m.members() {
			for _, d := range units[id].deps {
				if !m.has(d) {
					t.Errorf("closure %v misses dep %d of %d", m.members(), d, id)
				}
			}
		}
	}
}

func TestEnumerateClosuresFallback(t *testing.T) {
	g := model.ResNet18()
	units, _ := condense(g)
	cs := enumerateClosures(units, 5) // force the fallback
	if len(cs.masks) != len(units)+1 {
		t.Errorf("fallback closures = %d, want %d", len(cs.masks), len(units)+1)
	}
	if !cs.capHit {
		t.Error("forced fallback did not report the cap hit")
	}
	if cs.enumerated <= 5 {
		t.Errorf("enumerated = %d, want > cap", cs.enumerated)
	}
}

func TestPartitionStrategies(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, name := range []string{"resnet18", "mobilenetv2"} {
		g := model.Zoo(name)
		var est [3]float64
		for _, s := range []Strategy{StrategyGeneric, StrategyDuplication, StrategyDP} {
			plan, err := Partition(g, &cfg, Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			if len(plan.Stages) == 0 {
				t.Fatalf("%s/%s: no stages", name, s)
			}
			est[int(s)] = plan.EstimatedCycles
			// Every node planned exactly once; cores within budget per stage.
			seen := map[int]bool{}
			for _, st := range plan.Stages {
				coresUsed := map[int]bool{}
				for _, op := range st.Ops {
					if seen[op.Node.ID] {
						t.Errorf("%s/%s: node %s planned twice", name, s, op.Node.Name)
					}
					seen[op.Node.ID] = true
					for _, r := range op.Replicas {
						for _, sh := range r.Shards {
							if sh.Core < 0 || sh.Core >= cfg.NumCores() {
								t.Errorf("%s/%s: core %d out of range", name, s, sh.Core)
							}
							if op.Node.Op == model.OpConv || op.Node.Op == model.OpDense {
								coresUsed[sh.Core] = true
							}
						}
					}
				}
				_ = coresUsed
			}
			for _, n := range g.Nodes {
				if n.Op == model.OpInput || n.Op == model.OpFlatten {
					continue
				}
				if !seen[n.ID] {
					t.Errorf("%s/%s: node %s not planned", name, s, n.Name)
				}
			}
			if plan.Summary() == "" {
				t.Error("empty summary")
			}
		}
		// DP must not be worse than generic under the model's own estimate.
		if est[int(StrategyDP)] > est[int(StrategyGeneric)]*1.001 {
			t.Errorf("%s: DP estimate %.0f worse than generic %.0f",
				name, est[int(StrategyDP)], est[int(StrategyGeneric)])
		}
	}
}

func TestPartitionVGG19MultiStage(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.VGG19()
	plan, err := Partition(g, &cfg, Options{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	// 139 MB of weights vs 32 MB chip capacity: multiple stages required.
	if len(plan.Stages) < 3 {
		t.Errorf("vgg19 generic plan has %d stages, want >= 3 (capacity constraint)", len(plan.Stages))
	}
	// fc1 must be alone in its stage (weight swapping).
	for _, st := range plan.Stages {
		for _, op := range st.Ops {
			if op.Node.Name == "fc1" && op.Passes > 1 {
				anchors := 0
				for _, o := range st.Ops {
					if o.Node.Op == model.OpConv || o.Node.Op == model.OpDense {
						anchors++
					}
				}
				if anchors != 1 {
					t.Errorf("swapping fc1 shares a stage with %d anchors", anchors)
				}
			}
		}
	}
}

func TestDuplicationUsesMoreCores(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.MobileNetV2()
	generic, err := Partition(g, &cfg, Options{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := Partition(g, &cfg, Options{Strategy: StrategyDuplication})
	if err != nil {
		t.Fatal(err)
	}
	count := func(p *Plan) int {
		var total int
		for _, st := range p.Stages {
			for _, op := range st.Ops {
				if op.Node.Op == model.OpConv || op.Node.Op == model.OpDense {
					total += len(op.Replicas)
				}
			}
		}
		return total
	}
	if count(dup) <= count(generic) {
		t.Errorf("duplication strategy created %d replicas vs generic %d; expected more",
			count(dup), count(generic))
	}
}

func TestGlobalOutputsMarked(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.VGG19()
	plan, err := Partition(g, &cfg, Options{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	// The network output must be marked.
	out := g.Nodes[g.Output()]
	op := plan.opPlanByNode(out.ID)
	if op == nil || op.GlobalOut != -2 {
		t.Error("network output not marked for global materialization")
	}
	// At least one cross-stage tensor exists in a multi-stage plan.
	marked := 0
	for _, st := range plan.Stages {
		for _, o := range st.Ops {
			if o.GlobalOut == -2 {
				marked++
			}
		}
	}
	if marked < len(plan.Stages) {
		t.Errorf("only %d global outputs marked across %d stages", marked, len(plan.Stages))
	}
}

func TestParseStrategy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Strategy
	}{{"generic", StrategyGeneric}, {"duplication", StrategyDuplication}, {"dp", StrategyDP}, {"CIM-MLC", StrategyDuplication}} {
		got, err := ParseStrategy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted garbage")
	}
}
