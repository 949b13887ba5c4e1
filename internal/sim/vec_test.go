package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cimflow/internal/isa"
	"cimflow/internal/tensor"
)

// vecRig drives decVec on one core of a chip with a 4 KB local memory, small
// enough to compare whole after every instruction: every byte outside the
// destination is a guard byte.
type vecRig struct {
	c    *core
	init []byte // local memory before each instruction
	ref  []byte // scratch: what the per-element loop makes of init
}

const vecRigMem = 4096

func newVecRig(t testing.TB) *vecRig {
	t.Helper()
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	cfg.Core.LocalMemBytes = vecRigMem
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &vecRig{c: ch.cores[0], init: make([]byte, vecRigMem), ref: make([]byte, vecRigMem)}
	r.c.mem() // one page, the whole memory: the backing is the logical memory
	for i := range r.init {
		r.init[i] = byte(i*37 + 11)
	}
	// Both INT8 extremes next to each other, at both parities.
	copy(r.init[64:], []byte{0x80, 0x7f, 0x7f, 0x80, 0x80, 0x80, 0x7f, 0x7f, 0})
	r.c.sregs[isa.SRegQuantMul] = 3
	r.c.sregs[isa.SRegQMulA] = 3
	r.c.sregs[isa.SRegQMulB] = -5
	r.c.sregs[isa.SRegActInScale] = int32(math.Float32bits(0.0625))
	r.c.sregs[isa.SRegActOutScale] = int32(math.Float32bits(0.03125))
	return r
}

// vecInstr is the predecoded form of `VEC_<fn> G3, G1, G2, G4`.
func vecInstr(t testing.TB, fn uint8) *isa.Decoded {
	t.Helper()
	dec, err := isa.Predecode([]isa.Instruction{isa.Vec(fn, 3, 1, 2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	return &dec[0]
}

// run executes d through decVec with operands a (G1), rt (G2: source B or
// the scalar operand), dst (G3) and length n (G4) on a fresh copy of init
// (after prep, when given, has edited it), and through the per-element loop
// on another. It reports whether the instruction was valid; when it was, the
// two memories must be byte-identical, and when not, memory must be
// untouched. The quantization shift is one that suits the funct; exec is run
// with the quantization registers as the caller left them.
func (r *vecRig) run(t testing.TB, d *isa.Decoded, a, rt, dst, n int32, prep func(local []byte)) bool {
	t.Helper()
	// A shift that spreads each requantizing funct's results over the INT8
	// range, some saturating at either end, rather than pinning them all.
	switch d.Funct {
	case isa.VFnQnt:
		r.c.sregs[isa.SRegQuantShift] = 25
	case isa.VFnQMul8:
		r.c.sregs[isa.SRegQuantShift] = 7
	default:
		r.c.sregs[isa.SRegQuantShift] = 2
	}
	return r.exec(t, d, a, rt, dst, n, prep)
}

// exec is run without the choice of shift.
func (r *vecRig) exec(t testing.TB, d *isa.Decoded, a, rt, dst, n int32, prep func(local []byte)) bool {
	t.Helper()
	c := r.c
	c.regs[1], c.regs[2], c.regs[3], c.regs[4] = a, rt, dst, n
	copy(c.local, r.init)
	if prep != nil {
		prep(c.local)
	}
	copy(r.ref, c.local)
	c.pc = 0
	if _, err := decVec(c, d); err != nil {
		if !bytes.Equal(c.local, r.ref) {
			t.Fatalf("%s a=%d rt=%d d=%d n=%d: rejected (%v) but memory changed", isa.VectorFnName(d.Funct), a, rt, dst, n, err)
		}
		return false
	}
	vecApply(c, d, r.ref)
	if !bytes.Equal(c.local, r.ref) {
		for i := range r.ref {
			if c.local[i] != r.ref[i] {
				t.Fatalf("%s a=%d rt=%d d=%d n=%d strides (%d,%d,%d): byte %d is %#x, the per-element loop says %#x",
					isa.VectorFnName(d.Funct), a, rt, dst, n, c.sregs[isa.SRegVecStrideA], c.sregs[isa.SRegVecStrideB],
					c.sregs[isa.SRegVecStrideD], i, c.local[i], r.ref[i])
			}
		}
	}
	return true
}

// bulkFuncts are the functs with whole-slice kernels: the ones a zoo model
// executes (EXPERIMENTS.md, PR 14, has the histogram).
var bulkFuncts = map[uint8]bool{
	isa.VFnMax8: true, isa.VFnMov8: true, isa.VFnRelu8: true, isa.VFnRelu68: true,
	isa.VFnSigm8: true, isa.VFnSilu8: true, isa.VFnQAdd8: true, isa.VFnQMul8: true,
	isa.VFnMac8: true, isa.VFnAcc8: true, isa.VFnQnt: true,
}

// touches reports whether byte windows [a, a+na) and [b, b+nb) intersect,
// the slow way.
func touches(a, na, b, nb int32) bool {
	for i := a; i < a+na; i++ {
		if i >= b && i < b+nb {
			return true
		}
	}
	return false
}

// TestVecKernels runs every vector funct at unit stride through decVec and
// through the per-element loop: every length from 0 to 70 (empty, below one
// AVX2 block, the 8-, 16- and 32-element block edges with and without tails)
// and 255-257, operands at odd offsets, and six placements of the
// destination — apart from the sources, exactly on source A, exactly on
// source B, one byte above A, one byte below A, and straddling the end of B.
// Results must be byte-identical over the whole memory, and the bulk
// decision must be what the placement says: kernels when the destination is
// apart from a source or in place with the same element size, the loop for
// every partial overlap, for the functs without kernels and for n = 0. Under
// -tags purego the same test proves the portable kernel bodies.
func TestVecKernels(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	r := newVecRig(t)
	lengths := []int32{255, 256, 257}
	for n := int32(0); n <= 70; n++ {
		lengths = append(lengths, n)
	}
	modes := []string{"apart", "d==a", "d==b", "d=a+1", "d=a-1", "d straddles b"}
	// RT is source B's address for two-source functs and the scalar operand
	// for VEC_RELU68 / ADDS / MAXS: a clamp bound that fits INT8, one below
	// and one above (no clamp kernel for those).
	scalars := []int32{23, 0, 127, -1, 128}
	bulkRuns, loopRuns := 0, 0
	for fn := uint8(0); fn <= isa.VFnRMax8; fn++ {
		d := vecInstr(t, fn)
		for _, n := range lengths {
			for _, off := range [][3]int32{{1, 3, 1}, {2, 7, 5}} {
				for mi, mode := range modes {
					a, b := 512+off[0], 1024+off[1]
					var dst int32
					switch mode {
					case "apart":
						dst = 2048 + off[2]
					case "d==a":
						dst = a
					case "d==b":
						dst = b
					case "d=a+1":
						dst = a + 1
					case "d=a-1":
						dst = a - 1
					case "d straddles b":
						dst = b + n*d.SizeB - 2
					}
					rt := b
					if d.SizeB == 0 {
						rt = scalars[(int(n)+mi)%len(scalars)]
					}
					var prep func([]byte)
					if d.SizeD == 4 && !d.Reduce && mode == "apart" {
						// Accumulators at both ends of the range, so adds wrap.
						prep = func(local []byte) {
							for i := int32(0); i < n; i += 3 {
								v := uint32(math.MaxInt32)
								if i%2 == 1 {
									v = 1 << 31
								}
								binary.LittleEndian.PutUint32(local[dst+4*i:], v-uint32(i))
							}
						}
					}
					if !r.run(t, d, a, rt, dst, n, prep) {
						t.Fatalf("%s n=%d %s: operands out of range; the test's layout is wrong", isa.VectorFnName(fn), n, mode)
					}

					dN := n * d.SizeD
					if d.Reduce {
						dN = d.SizeD
					}
					apartOrInPlace := func(src, size int32) bool {
						return !touches(dst, dN, src, n*size) || dst == src && d.SizeD == size
					}
					want := bulkFuncts[fn] && n > 0 && apartOrInPlace(a, d.SizeA) &&
						(d.SizeB == 0 || apartOrInPlace(b, d.SizeB)) &&
						(fn != isa.VFnRelu68 || rt >= 0 && rt <= 127)
					rA := memRange{a, a + n*d.SizeA}
					rB := memRange{}
					if d.SizeB != 0 {
						rB = memRange{b, b + n*d.SizeB}
					}
					if got := r.c.vecBulk(d, rA, rB, memRange{dst, dst + dN}); got != want {
						t.Fatalf("%s n=%d %s (a=%d rt=%d d=%d): vecBulk = %v, want %v", isa.VectorFnName(fn), n, mode, a, rt, dst, got, want)
					}
					if want {
						bulkRuns++
					} else {
						loopRuns++
					}
				}
			}
		}
	}
	if bulkRuns == 0 || loopRuns == 0 {
		t.Fatalf("%d bulk and %d per-element runs: one path was never taken", bulkRuns, loopRuns)
	}

	// Any stride other than 1 keeps the loop, whatever the funct.
	d := vecInstr(t, isa.VFnMac8)
	for _, sreg := range []int{isa.SRegVecStrideA, isa.SRegVecStrideB, isa.SRegVecStrideD} {
		for _, stride := range []int32{0, 2, -1} {
			r.c.sregs[sreg] = stride
			a, b, dst, n := int32(600), int32(1200), int32(2400), int32(40)
			if !r.run(t, d, a, b, dst, n, nil) {
				t.Fatalf("stride %d in S%d: operands out of range", stride, sreg)
			}
			if r.c.vecBulk(d, memRange{a, a + n}, memRange{b, b + n}, memRange{dst, dst + 4*n}) {
				t.Errorf("stride %d in S%d: vecBulk admitted a strided operand", stride, sreg)
			}
			r.c.sregs[sreg] = 1
		}
	}
}

// FuzzVecApply feeds decVec arbitrary functs, lengths, operand addresses,
// strides, scalar operands and quantization registers (any int32 multiplier:
// hand-written ISA can load one): whatever it accepts must leave memory as
// the per-element loop does, and whatever it rejects must leave memory alone.
func FuzzVecApply(f *testing.F) {
	qmul, qshift := tensor.QuantizeScale(0.0037) // what the compiler loads
	f.Add(isa.VFnMac8, uint16(41), uint16(513), int32(1027), uint16(2049), int8(1), int8(1), int8(1), int32(3), uint8(2))
	f.Add(isa.VFnRelu68, uint16(70), uint16(512), int32(23), uint16(512), int8(1), int8(1), int8(1), int32(3), uint8(2))
	f.Add(isa.VFnRelu68, uint16(70), uint16(512), int32(-3), uint16(513), int8(1), int8(1), int8(1), int32(3), uint8(2))
	f.Add(isa.VFnSilu8, uint16(257), uint16(100), int32(0), uint16(99), int8(1), int8(1), int8(1), int32(3), uint8(2))
	f.Add(isa.VFnQnt, uint16(33), uint16(512), int32(0), uint16(512), int8(1), int8(0), int8(1), int32(3), uint8(25))
	f.Add(isa.VFnQnt, uint16(70), uint16(513), int32(0), uint16(2049), int8(1), int8(1), int8(1), qmul, uint8(qshift))
	f.Add(isa.VFnQnt, uint16(41), uint16(515), int32(0), uint16(2050), int8(1), int8(1), int8(1), int32(0), uint8(9))
	f.Add(isa.VFnQnt, uint16(64), uint16(512), int32(0), uint16(2048), int8(1), int8(1), int8(1), int32(-12345), uint8(31))
	f.Add(isa.VFnQnt, uint16(65), uint16(514), int32(0), uint16(2051), int8(1), int8(1), int8(1), int32(math.MinInt32), uint8(30))
	f.Add(isa.VFnQMul8, uint16(40), uint16(512), int32(1024), uint16(2048), int8(1), int8(1), int8(1), qmul, uint8(7))
	f.Add(isa.VFnAcc8, uint16(16), uint16(300), int32(0), uint16(290), int8(2), int8(1), int8(-1), int32(3), uint8(2))
	f.Add(isa.VFnRSum8, uint16(65535), uint16(0), int32(0), uint16(0), int8(127), int8(1), int8(1), int32(3), uint8(2))
	r := newVecRig(f) // a worker process calls the target sequentially
	f.Fuzz(func(t *testing.T, fn uint8, n, a uint16, rt int32, dst uint16, sA, sB, sD int8, qmul int32, qshift uint8) {
		fn %= isa.VFnRMax8 + 1
		r.c.sregs[isa.SRegVecStrideA] = int32(sA)
		r.c.sregs[isa.SRegVecStrideB] = int32(sB)
		r.c.sregs[isa.SRegVecStrideD] = int32(sD)
		r.c.sregs[isa.SRegQuantMul] = qmul
		r.c.sregs[isa.SRegQuantShift] = int32(qshift) // the vector unit uses the low five bits
		r.exec(t, vecInstr(t, fn), int32(a)%vecRigMem, rt, int32(dst)%vecRigMem, int32(n)%600, nil)
	})
}

// TestActTable: the activation table is the closed form sampled at all 256
// inputs, for both functs and whatever scales the registers hold, and one
// table slot serves a program that alternates activations and scales —
// also on a pooled chip after Reset, which keeps the slot.
func TestActTable(t *testing.T) {
	bitsOf := func(f float32) int32 { return int32(math.Float32bits(f)) }
	// Neighbours share one scale and differ in the other.
	scales := [][2]float32{{0.0625, 0.03125}, {0.0625, 0.05}, {0.1, 0.05}, {0.5, 1.0 / 128}, {1.0 / 512, 0.25}, {3, 0.001}}
	var tbl actTable
	for round := 0; round < 2; round++ { // the second round refills every entry over another
		for _, fn := range []uint8{isa.VFnSigm8, isa.VFnSilu8} {
			for _, sc := range scales {
				ref := tensor.Sigmoid8
				if fn == isa.VFnSilu8 {
					ref = tensor.SiLU8
				}
				lut := tbl.lookup(fn, bitsOf(sc[0]), bitsOf(sc[1]))
				for x := 0; x < 256; x++ {
					if want := byte(ref(int8(x), sc[0], sc[1])); lut[x] != want {
						t.Fatalf("%s scales %v: lut[%#x] = %d, closed form %d", isa.VectorFnName(fn), sc, x, int8(lut[x]), int8(want))
					}
				}
			}
		}
	}

	// One table slot serves a program that alternates activations and
	// scales, also after Reset.
	runRows(t, "activations alternate")
}

// TestWritebackPartialGroup runs the partial-group writeback case (5 of the
// group's channels, raw / requantized / requantized+ReLU, guard bytes behind
// each window) at one lane against the reference executor and the golden
// table, and as a full 8-lane batch against the one-lane runs.
func TestWritebackPartialGroup(t *testing.T) {
	cfg := testConfig()
	lc := row(t, "mvm writeback 5 channels")
	want := lc.check(t, lc.golden(), &cfg, laneInputs(8))
	if relu, noRelu := want[0][40:45], want[0][32:37]; bytes.Equal(relu, noRelu) {
		t.Fatalf("the case does not tell ReLU from no ReLU: both %v", relu)
	}
}

// TestWritebackTable runs CIM_MVM's write-back as a whole instruction at the
// channel counts on both sides of the requant kernel's 8-element block (1, 7,
// 8, 9, 33 and the whole group), raw / requantized / requantized+ReLU, and
// the multipliers hand-written ISA may load besides the compiler's own (0, a
// negative, MinInt32) — the other rigs pin SRegQuantMul to 1, 3 or 5. A lane's
// 64 input bytes are its 1x64 weights, multiplied by one of them, so every
// lane writes back accumulators of its own; the window is pre-filled with
// 0x55 and read back with eight bytes behind it. Each one-lane run must equal
// the reference executor and its golden row, and each lane of an 8-lane batch
// its one-lane run, bytes and report.
func TestWritebackTable(t *testing.T) {
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	// Over a thousand chips are built below; none needs the default 16 MB per lane.
	cfg.Chip.GlobalMemBytes, cfg.Core.LocalMemBytes = 4096, 4096
	group := int32(cfg.GroupChannels())
	mul, shift := tensor.QuantizeScale(0.0037)
	type quant struct {
		mul, shift int32
		spread     bool // scaled to land most of this table's accumulators inside INT8
	}
	quants := []quant{
		{mul, int32(shift), true}, {mul, int32(shift) - 3, false},
		{0, 9, false}, {-12345, 22, true}, {math.MinInt32, 31, false},
	}
	modes := []struct {
		name   string
		flags  uint16
		elem   int32
		quants []quant
	}{
		{"plain", isa.MVMFlagWriteback, 1, quants},
		{"relu", isa.MVMFlagWriteback | isa.MVMFlagRelu, 1, quants},
		{"raw", isa.MVMFlagWriteRaw, 4, quants[:1]}, // raw stores no quantized value
	}
	inputs := laneInputs(8)
	for _, outChans := range []int32{1, 7, 8, 9, 33, group} {
		for _, mode := range modes {
			for _, q := range mode.quants {
				window := outChans*mode.elem + 8
				lc := laneCase{
					name: fmt.Sprintf("%s/chans=%d/mul=%d>>%d", mode.name, outChans, q.mul, q.shift),
					progs: []Program{{Core: 0, Code: seq(
						copyIn(0, laneIn, 64),
						setSReg(isa.SRegQuantMul, q.mul), setSReg(isa.SRegQuantShift, q.shift), setSReg(isa.SRegOutChans, outChans),
						isa.LI(1, 0), isa.LI(2, 1), isa.LI(3, group), one(isa.CimLoad(0, 1, 2, 3)),
						isa.LI(1, 1024), isa.LI(2, window), one(isa.VFill(1, 2, 0x55)),
						mvm(21, 1, 1024, mode.flags),
						copyOut(laneOut, 1024, window),
						spinHalt(),
					)}},
					outSize: int(window),
				}
				t.Run(lc.name, func(t *testing.T) {
					distinct := map[byte]bool{}
					for l, out := range lc.check(t, "writeback/"+lc.name, &cfg, inputs) {
						if tail := out[len(out)-8:]; !bytes.Equal(tail, bytes.Repeat([]byte{0x55}, 8)) {
							t.Fatalf("input %d: bytes behind the window overwritten: %v", l, tail)
						}
						for _, b := range out[:len(out)-8] {
							distinct[b] = true
						}
					}
					// A table whose every result saturates would prove little.
					if q.spread && outChans >= 8 && len(distinct) < 8 {
						t.Fatalf("only %d distinct output bytes over %d lanes", len(distinct), len(inputs))
					}
				})
			}
		}
	}
}
