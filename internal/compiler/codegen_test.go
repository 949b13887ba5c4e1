package compiler

import (
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
	"cimflow/internal/model"
)

func compileOrDie(t *testing.T, g *model.Graph, cfg *arch.Config, s Strategy) *Compiled {
	t.Helper()
	c, err := Compile(g, cfg, Options{Strategy: s})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileProducesProgramPerCore(t *testing.T) {
	cfg := arch.DefaultConfig()
	c := compileOrDie(t, model.TinyResNet(), &cfg, StrategyGeneric)
	if len(c.Programs) != cfg.NumCores() {
		t.Fatalf("%d programs, want %d", len(c.Programs), cfg.NumCores())
	}
	for _, p := range c.Programs {
		if len(p.Code) == 0 {
			t.Fatalf("core %d has an empty program", p.Core)
		}
		// Every program must end in HALT and contain the stage barriers.
		if p.Code[len(p.Code)-1].Op != isa.OpHALT {
			t.Errorf("core %d does not end in HALT", p.Core)
		}
		barriers := 0
		for _, in := range p.Code {
			if in.Op == isa.OpBarrier {
				barriers++
			}
		}
		if barriers != len(c.Plan.Stages) {
			t.Errorf("core %d has %d barriers, want %d", p.Core, barriers, len(c.Plan.Stages))
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	cfg := arch.DefaultConfig()
	a := compileOrDie(t, model.TinyCNN(), &cfg, StrategyDP)
	b := compileOrDie(t, model.TinyCNN(), &cfg, StrategyDP)
	if a.InstructionCount() != b.InstructionCount() {
		t.Fatalf("instruction counts differ: %d vs %d", a.InstructionCount(), b.InstructionCount())
	}
	for i := range a.Programs {
		if len(a.Programs[i].Code) != len(b.Programs[i].Code) {
			t.Fatalf("core %d code length differs", i)
		}
		for j := range a.Programs[i].Code {
			if a.Programs[i].Code[j] != b.Programs[i].Code[j] {
				t.Fatalf("core %d instruction %d differs", i, j)
			}
		}
	}
}

func TestCompiledProgramsEncodable(t *testing.T) {
	// Every generated instruction must survive binary encode/decode: the
	// compiler may not emit unencodable operands.
	cfg := arch.DefaultConfig()
	c := compileOrDie(t, model.TinyMobile(), &cfg, StrategyDP)
	for _, p := range c.Programs {
		words, err := isa.EncodeProgram(p.Code)
		if err != nil {
			t.Fatalf("core %d: %v", p.Core, err)
		}
		back, err := isa.DecodeProgram(words)
		if err != nil {
			t.Fatalf("core %d: %v", p.Core, err)
		}
		for i := range back {
			if back[i] != p.Code[i] {
				t.Fatalf("core %d instruction %d not round-trippable: %v vs %v",
					p.Core, i, p.Code[i], back[i])
			}
		}
	}
}

func TestGlobalInitCoversWeights(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyCNN()
	c := compileOrDie(t, g, &cfg, StrategyGeneric)
	ws := model.NewSeededWeights(g, 1)
	segs, err := c.GlobalInit(ws, model.SeededInput(g.Nodes[0].OutShape, 2))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, s := range segs {
		if s.Addr < 0 || s.Addr+len(s.Data) > c.GlobalBytes() {
			t.Errorf("segment [%d, %d) outside global %d", s.Addr, s.Addr+len(s.Data), c.GlobalBytes())
		}
		total += len(s.Data)
	}
	// Input + all weights at minimum.
	min := g.Nodes[0].OutShape.Elems() + g.TotalWeightBytes()
	if total < min {
		t.Errorf("init covers %d bytes, want at least %d", total, min)
	}
}

// TestScratchRangesComplementStatic: ScratchRanges plus the StaticInit
// segments must tile [0, GlobalBytes) exactly, with no overlap — the
// invariant that makes "zero scratch + rewrite input" equivalent to a fresh
// chip's zeroed global memory — and the segments come highest address
// first, so that staging them backs a chip's global memory at once.
func TestScratchRangesComplementStatic(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyCNN()
	c := compileOrDie(t, g, &cfg, StrategyGeneric)
	ws := model.NewSeededWeights(g, 1)
	static, err := c.StaticInit(ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(static); i++ {
		if static[i].Addr > static[i-1].Addr {
			t.Fatalf("static segment %d at %d follows one at %d", i, static[i].Addr, static[i-1].Addr)
		}
	}
	covered := make([]int, c.GlobalBytes())
	for _, s := range static {
		for i := s.Addr; i < s.Addr+len(s.Data); i++ {
			covered[i]++
		}
	}
	for _, r := range c.ScratchRanges() {
		for i := r[0]; i < r[0]+r[1]; i++ {
			covered[i]++
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Fatalf("byte %d covered %d times, want exactly once", i, n)
		}
	}
	// The input region must be scratch, not static.
	in, err := c.InputSegment(model.SeededInput(g.Nodes[0].OutShape, 2))
	if err != nil {
		t.Fatal(err)
	}
	inScratch := false
	for _, r := range c.ScratchRanges() {
		if in.Addr >= r[0] && in.Addr+len(in.Data) <= r[0]+r[1] {
			inScratch = true
		}
	}
	if !inScratch {
		t.Error("input region is not inside a scratch range")
	}
}

func TestGlobalInitRejectsBadInput(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyMLP()
	c := compileOrDie(t, g, &cfg, StrategyGeneric)
	ws := model.NewSeededWeights(g, 1)
	if _, err := c.GlobalInit(ws, model.SeededInput(model.Shape{H: 2, W: 2, C: 2}, 1)); err == nil {
		t.Error("GlobalInit accepted a mis-shaped input")
	}
}

func TestWeightBlockOffsetsDisjoint(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.ResNet18()
	gc := cfg.GroupChannels()
	for _, n := range g.Nodes {
		if n.Op != model.OpConv && n.Op != model.OpDense {
			continue
		}
		gm := geometry(g, &cfg, n)
		var prevEnd int32
		for ct := 0; ct < gm.chanTiles; ct++ {
			chans := gc
			if (ct+1)*gc > n.Cout {
				chans = n.Cout - ct*gc
			}
			for ti, tile := range gm.tiles {
				off := weightBlockOffset(&gm, gc, ct, ti)
				if off != prevEnd {
					t.Fatalf("%s ct=%d ti=%d: block at %d, want %d (gap or overlap)",
						n.Name, ct, ti, off, prevEnd)
				}
				prevEnd = off + int32(tile.Rows*chans)
			}
		}
		if prevEnd != weightRegionBytes(g, &cfg, n) {
			t.Fatalf("%s: blocks end at %d, region is %d", n.Name, prevEnd, weightRegionBytes(g, &cfg, n))
		}
	}
}

func TestPieceOffsetsCoverBuffer(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.ResNet18()
	plan, err := Partition(g, &cfg, Options{Strategy: StrategyDuplication})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Stages {
		for _, op := range st.Ops {
			out := op.Node.OutShape
			covered := make([]bool, out.Elems())
			for ri, rep := range op.Replicas {
				for si, sh := range rep.Shards {
					base := pieceOffset(op, ri, si)
					n := (rep.RowEnd - rep.RowStart) * out.W * sh.ChanCount
					for i := 0; i < n; i++ {
						idx := int(base) + i
						if idx >= len(covered) || covered[idx] {
							t.Fatalf("%s replica %d shard %d: byte %d out of range or overlapping",
								op.Node.Name, ri, si, idx)
						}
						covered[idx] = true
					}
				}
			}
			for i, c := range covered {
				if !c {
					t.Fatalf("%s: output byte %d not covered by any piece", op.Node.Name, i)
				}
			}
		}
	}
}

func TestEmitterRegisterDiscipline(t *testing.T) {
	// After compiling, the emitter must not have leaked scratch registers:
	// compile twice and confirm no "out of registers" failures on complex
	// models (the emitter fails compilation if the pool empties).
	cfg := arch.DefaultConfig()
	for _, name := range []string{"resnet18", "mobilenetv2"} {
		if _, err := Compile(model.Zoo(name), &cfg, Options{Strategy: StrategyDP}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
