package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// File layout (all multi-byte integers little-endian; "uv" is an unsigned
// varint, "sv" a zigzag-signed varint, "bytes" a uv length followed by raw
// content):
//
//	magic   [4]byte "CFAR"
//	version u16
//	header  bytes       — Meta fields (fingerprints, strategy, summary)
//	body                — config JSON, graph, plan, programs and memory maps,
//	                      layout, pool segments, output node (to EOF-32)
//	sha256  [32]byte    — digest of every preceding byte
//
// The header is separately length-prefixed so ReadMeta can describe an
// artifact from its first few hundred bytes without decoding (or
// verifying) the body — Store.Save names a file from it without hashing
// the graph again. Decode always checks the whole-file digest first and the
// recomputed content fingerprints last.

var magic = [4]byte{'C', 'F', 'A', 'R'}

// Version is the current codec version. Decoders refuse other versions
// with ErrVersion; any change to the byte layout must bump it.
const Version = 3

const checksumLen = sha256.Size

// maxGlobalBytes caps the decoded global-memory footprint. It exists to
// bound allocations when parsing adversarial input; real artifacts are
// orders of magnitude smaller.
const maxGlobalBytes = 1 << 30

// maxNodeDim caps every decoded per-node dimension field (kernel sizes,
// strides, channel counts, shape extents). Downstream derivations multiply
// these fields — geometry enumerates ~KH·KW·C/macroRows row tiles — so an
// adversarial node with a huge kernel would otherwise turn decode into an
// unbounded allocation. Real models sit orders of magnitude below this.
const maxNodeDim = 1 << 20

// Meta describes an artifact without decoding its body.
type Meta struct {
	Version   int
	GraphName string
	GraphFP   string
	ConfigFP  string
	Strategy  compiler.Strategy
	// Summary counters for listings.
	Cores        int
	Instructions int
	GlobalBytes  int
}

// Key returns the store key the artifact addresses itself under.
func (m Meta) Key() string { return keyFrom(m.Version, m.GraphFP, m.ConfigFP, m.Strategy) }

// --- writer ---

type writer struct{ buf []byte }

func (w *writer) u16(v uint16)   { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *writer) uv(v uint64)    { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) sv(v int64)     { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) bool(v bool)    { w.u8(map[bool]uint8{false: 0, true: 1}[v]) }
func (w *writer) bytes(b []byte) { w.uv(uint64(len(b))); w.buf = append(w.buf, b...) }
func (w *writer) str(s string)   { w.uv(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *writer) f32(v float32)  { w.u32(math.Float32bits(v)) }
func (w *writer) f64(v float64)  { w.u64(math.Float64bits(v)) }

// --- reader ---

// reader is a bounds-checked cursor: the first malformed field latches an
// error and every later read returns a zero value, so decoding code reads
// linearly and checks r.err once per section. Length prefixes are validated
// against the remaining input before any allocation, so adversarial
// lengths cannot force large allocations.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corruptf("at byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail("need %d bytes, %d remain", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) sv() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bool() bool { return r.u8() != 0 }

// count reads a uv element count and rejects counts that could not fit in
// the remaining input at minBytes encoded bytes per element.
func (r *reader) count(minBytes int) int {
	v := r.uv()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()/minBytes) {
		r.fail("count %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

func (r *reader) bytes() []byte {
	n := r.count(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (r *reader) str() string {
	n := r.count(1)
	b := r.take(n)
	return string(b)
}

func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// --- encode ---

// Encode serializes a compiled artifact; opt are the options c was
// compiled under, and a Strategy other than the one c's plan was built
// with is refused (the file would sit under another compile's key). The
// encoding is deterministic: two structurally identical artifacts produce
// identical bytes, and Encode(Decode(data)) == data.
func Encode(c *compiler.Compiled, opt compiler.Options) ([]byte, error) {
	img, err := c.Image()
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if opt.Strategy != img.Strategy {
		return nil, fmt.Errorf("artifact: options name strategy %v, the plan was built under %v", opt.Strategy, img.Strategy)
	}
	w := &writer{buf: make([]byte, 0, 64<<10)}
	w.buf = append(w.buf, magic[:]...)
	w.u16(Version)

	// Header.
	var insts int
	for _, p := range img.Programs {
		insts += len(p)
	}
	h := &writer{}
	h.str(img.Graph.Name)
	h.str(GraphFingerprint(img.Graph))
	h.str(ConfigFingerprint(img.Cfg))
	h.u8(uint8(img.Strategy))
	h.uv(uint64(len(img.Programs)))
	h.uv(uint64(insts))
	h.uv(uint64(img.GlobalSize))
	w.bytes(h.buf)

	if err := encodeBody(w, img); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(w.buf)
	w.buf = append(w.buf, sum[:]...)
	return w.buf, nil
}

func encodeBody(w *writer, img *compiler.Image) error {
	// Architecture configuration, as canonical JSON: a plain struct of
	// scalars whose Go encoding is deterministic and round-trip exact.
	cfgJSON, err := json.Marshal(img.Cfg)
	if err != nil {
		return fmt.Errorf("artifact: encoding config: %w", err)
	}
	w.bytes(cfgJSON)

	// Graph, field by field (JSON would reject non-finite activation
	// scales that user-built graphs may carry).
	w.str(img.Graph.Name)
	w.uv(uint64(len(img.Graph.Nodes)))
	for _, n := range img.Graph.Nodes {
		w.str(n.Name)
		w.str(string(n.Op))
		w.uv(uint64(len(n.Inputs)))
		for _, in := range n.Inputs {
			w.sv(int64(in))
		}
		w.sv(int64(n.KH))
		w.sv(int64(n.KW))
		w.sv(int64(n.Stride))
		w.sv(int64(n.Pad))
		w.sv(int64(n.Cout))
		w.sv(int64(n.QMul))
		w.uv(uint64(n.QShift))
		w.sv(int64(n.QMulB))
		w.f32(n.InScale)
		w.f32(n.OutScale)
		w.sv(int64(n.Q6))
		w.bool(n.Relu)
		w.sv(int64(n.OutShape.H))
		w.sv(int64(n.OutShape.W))
		w.sv(int64(n.OutShape.C))
	}

	// Plan.
	w.f64(img.EstimatedCycles)
	w.bool(img.ClosureCapHit)
	w.sv(int64(img.ClosuresEnumerated))
	w.uv(uint64(len(img.Stages)))
	for _, st := range img.Stages {
		w.sv(int64(st.ID))
		w.uv(uint64(len(st.Ops)))
		for _, op := range st.Ops {
			w.sv(int64(op.Node))
			w.sv(int64(op.GlobalOut))
			w.sv(int64(op.Passes))
			w.uv(uint64(len(op.Replicas)))
			for _, rep := range op.Replicas {
				w.sv(int64(rep.RowStart))
				w.sv(int64(rep.RowEnd))
				w.uv(uint64(len(rep.Shards)))
				for _, sh := range rep.Shards {
					w.sv(int64(sh.Core))
					w.sv(int64(sh.ChanStart))
					w.sv(int64(sh.ChanCount))
				}
			}
		}
	}

	// Programs: raw 32-bit ISA words and the core's memory map, whose pool
	// end is the length of the core's pool segment.
	w.uv(uint64(len(img.Programs)))
	for i, words := range img.Programs {
		w.uv(uint64(len(words)))
		for _, word := range words {
			w.u32(word)
		}
		w.uv(uint64(img.Maps[i].ArenaMin))
		w.uv(uint64(img.Maps[i].Groups))
	}

	// Global-memory layout.
	w.sv(int64(img.InputAddr))
	w.sv(int64(img.InputBytes))
	w.uv(uint64(len(img.WeightAddr)))
	for _, e := range img.WeightAddr {
		w.sv(int64(e.Node))
		w.sv(int64(e.Addr))
	}
	w.uv(uint64(len(img.ActAddr)))
	for _, e := range img.ActAddr {
		w.sv(int64(e.Node))
		w.sv(int64(e.Addr))
	}
	w.uv(uint64(len(img.PoolAddr)))
	for _, a := range img.PoolAddr {
		w.sv(int64(a))
	}
	w.sv(int64(img.GlobalSize))

	// Constant-pool segments.
	w.uv(uint64(len(img.PoolSegs)))
	for _, s := range img.PoolSegs {
		w.sv(int64(s.Addr))
		w.bytes(s.Data)
	}

	w.sv(int64(img.OutputNode))
	return nil
}

// --- decode ---

// Decode parses, validates and rebuilds a compiled artifact: whole-file
// checksum first, then the structural decode, then re-derivation of the
// decoded content's fingerprints against the header's claim. All failures
// are typed (ErrCorrupt, ErrVersion) and never panic, whatever the input.
func Decode(data []byte) (*compiler.Compiled, Meta, error) {
	if len(data) < len(magic)+2+checksumLen {
		return nil, Meta{}, corruptf("%d bytes is shorter than any artifact", len(data))
	}
	body, trailer := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, Meta{}, corruptf("checksum mismatch")
	}
	return decodeVerified(body)
}

// decodeVerified decodes an artifact whose whole-file checksum already
// passed (or is deliberately skipped — the fuzz harness drives this path
// directly so structural hardening is exercised on inputs a checksum would
// otherwise reject).
func decodeVerified(body []byte) (*compiler.Compiled, Meta, error) {
	meta, r, err := readMeta(body)
	if err != nil {
		return nil, Meta{}, err
	}
	img, err := decodeBody(r)
	if err != nil {
		return nil, Meta{}, err
	}
	// The decoded content must be the content the header (and therefore
	// the store key) claims.
	if fp := GraphFingerprint(img.Graph); fp != meta.GraphFP {
		return nil, Meta{}, corruptf("graph fingerprint %s, header claims %s", fp, meta.GraphFP)
	}
	if fp := ConfigFingerprint(img.Cfg); fp != meta.ConfigFP {
		return nil, Meta{}, corruptf("config fingerprint %s, header claims %s", fp, meta.ConfigFP)
	}
	// The strategy lives in the header only (it is part of the store key,
	// not the plan body); stamp it onto the rebuilt plan.
	img.Strategy = meta.Strategy
	c, err := compiler.FromImage(img)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return c, meta, nil
}

// ReadMeta describes an artifact from its leading bytes without decoding
// the body. It needs only the header section (a few hundred bytes), so
// store listings can pass a bounded prefix of each file. No checksum is
// verified — use Decode (or Store.Verify) for integrity.
func ReadMeta(data []byte) (Meta, error) {
	meta, _, err := readMeta(data)
	return meta, err
}

// readMeta parses magic, version and the header section, returning the
// body reader positioned at the first body byte.
func readMeta(data []byte) (Meta, *reader, error) {
	r := &reader{data: data}
	if got := r.take(len(magic)); got == nil || !bytes.Equal(got, magic[:]) {
		return Meta{}, nil, fmt.Errorf("%w: bad magic", ErrVersion)
	}
	version := r.u16()
	if r.err != nil {
		return Meta{}, nil, fmt.Errorf("%w: truncated version", ErrVersion)
	}
	if version != Version {
		return Meta{}, nil, fmt.Errorf("%w: file version %d, codec version %d", ErrVersion, version, Version)
	}
	hlen := r.count(1)
	hbytes := r.take(hlen)
	if r.err != nil {
		return Meta{}, nil, r.err
	}
	h := &reader{data: hbytes}
	meta := Meta{
		Version:   int(version),
		GraphName: h.str(),
		GraphFP:   h.str(),
		ConfigFP:  h.str(),
		Strategy:  compiler.Strategy(h.u8()),
	}
	meta.Cores = int(h.uv())
	meta.Instructions = int(h.uv())
	meta.GlobalBytes = int(h.uv())
	if h.err != nil {
		return Meta{}, nil, h.err
	}
	if h.remaining() != 0 {
		return Meta{}, nil, corruptf("%d trailing header bytes", h.remaining())
	}
	return meta, r, nil
}

func decodeBody(r *reader) (*compiler.Image, error) {
	img := &compiler.Image{}

	// Architecture configuration.
	cfgJSON := r.bytes()
	if r.err != nil {
		return nil, r.err
	}
	cfg := &arch.Config{}
	if err := json.Unmarshal(cfgJSON, cfg); err != nil {
		return nil, corruptf("config: %v", err)
	}
	img.Cfg = cfg

	// Graph.
	g := &model.Graph{Name: r.str()}
	nodes := r.count(1)
	for i := 0; i < nodes && r.err == nil; i++ {
		n := &model.Node{ID: i, Name: r.str(), Op: model.OpType(r.str())}
		inputs := r.count(1)
		for j := 0; j < inputs && r.err == nil; j++ {
			n.Inputs = append(n.Inputs, int(r.sv()))
		}
		n.KH = int(r.sv())
		n.KW = int(r.sv())
		n.Stride = int(r.sv())
		n.Pad = int(r.sv())
		n.Cout = int(r.sv())
		n.QMul = int32(r.sv())
		n.QShift = uint(r.uv())
		n.QMulB = int32(r.sv())
		n.InScale = r.f32()
		n.OutScale = r.f32()
		n.Q6 = int8(r.sv())
		n.Relu = r.bool()
		n.OutShape = model.Shape{H: int(r.sv()), W: int(r.sv()), C: int(r.sv())}
		// Geometry derivation divides by kernel-derived segment sizes;
		// model.Graph.Validate does not pin kernel fields, so reject the
		// degenerate encodings here.
		if (n.Op == model.OpConv || n.Op == model.OpDWConv) && (n.KH < 1 || n.KW < 1) {
			r.fail("node %d: %s kernel %dx%d", i, n.Op, n.KH, n.KW)
		}
		for _, dim := range [...]int{n.KH, n.KW, n.Stride, n.Pad, n.Cout,
			n.OutShape.H, n.OutShape.W, n.OutShape.C} {
			if dim < 0 || dim > maxNodeDim {
				r.fail("node %d: dimension %d out of range", i, dim)
				break
			}
		}
		if n.QShift > 63 {
			r.fail("node %d: quantization shift %d", i, n.QShift)
		}
		g.Nodes = append(g.Nodes, n)
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := g.Validate(); err != nil {
		return nil, corruptf("graph: %v", err)
	}
	img.Graph = g

	// Plan.
	img.EstimatedCycles = r.f64()
	img.ClosureCapHit = r.bool()
	img.ClosuresEnumerated = int(r.sv())
	stages := r.count(2)
	for i := 0; i < stages && r.err == nil; i++ {
		st := compiler.StageImage{ID: int(r.sv())}
		ops := r.count(4)
		for j := 0; j < ops && r.err == nil; j++ {
			op := compiler.OpImage{
				Node:      int(r.sv()),
				GlobalOut: int(r.sv()),
				Passes:    int(r.sv()),
			}
			reps := r.count(3)
			for k := 0; k < reps && r.err == nil; k++ {
				rep := compiler.Replica{RowStart: int(r.sv()), RowEnd: int(r.sv())}
				shards := r.count(3)
				for l := 0; l < shards && r.err == nil; l++ {
					rep.Shards = append(rep.Shards, compiler.Shard{
						Core:      int(r.sv()),
						ChanStart: int(r.sv()),
						ChanCount: int(r.sv()),
					})
				}
				op.Replicas = append(op.Replicas, rep)
			}
			st.Ops = append(st.Ops, op)
		}
		img.Stages = append(img.Stages, st)
	}

	// Programs stay raw words here; FromImage decodes and predecodes them
	// in one fused pass (and rejects unknown opcodes, bad targets or maps).
	progs := r.count(3)
	for i := 0; i < progs && r.err == nil; i++ {
		words := r.count(4)
		raw := r.take(4 * words)
		if r.err != nil {
			break
		}
		code := make([]uint32, words)
		for j := range code {
			code[j] = binary.LittleEndian.Uint32(raw[4*j:])
		}
		img.Programs = append(img.Programs, code)
		arena, groups := r.uv(), r.uv()
		if arena > math.MaxInt32 || groups > math.MaxUint32 {
			r.fail("core %d: memory map %d, %#x out of range", i, arena, groups)
		}
		img.Maps = append(img.Maps, sim.MemMap{ArenaMin: int32(arena), Groups: uint32(groups)})
	}

	// Layout.
	img.InputAddr = int32(r.sv())
	img.InputBytes = int32(r.sv())
	weights := r.count(2)
	for i := 0; i < weights && r.err == nil; i++ {
		img.WeightAddr = append(img.WeightAddr, compiler.AddrEntry{Node: int(r.sv()), Addr: int32(r.sv())})
	}
	acts := r.count(2)
	for i := 0; i < acts && r.err == nil; i++ {
		img.ActAddr = append(img.ActAddr, compiler.AddrEntry{Node: int(r.sv()), Addr: int32(r.sv())})
	}
	pools := r.count(1)
	for i := 0; i < pools && r.err == nil; i++ {
		img.PoolAddr = append(img.PoolAddr, int32(r.sv()))
	}
	img.GlobalSize = int32(r.sv())
	if r.err == nil && (img.GlobalSize < 0 || img.GlobalSize > maxGlobalBytes) {
		r.fail("global size %d out of range", img.GlobalSize)
	}

	// Constant-pool segments.
	segs := r.count(2)
	for i := 0; i < segs && r.err == nil; i++ {
		img.PoolSegs = append(img.PoolSegs, compiler.SegImage{Addr: int32(r.sv()), Data: r.bytes()})
	}

	img.OutputNode = int(r.sv())
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, corruptf("%d trailing bytes after body", r.remaining())
	}
	return img, nil
}
