package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

func compileTiny(t testing.TB, name string, strat compiler.Strategy) (*compiler.Compiled, compiler.Options) {
	t.Helper()
	cfg := arch.DefaultConfig()
	opt := compiler.Options{Strategy: strat}
	c, err := compiler.Compile(model.Zoo(name), &cfg, opt)
	if err != nil {
		t.Fatalf("compiling %s: %v", name, err)
	}
	return c, opt
}

// TestEncodeDeterministic pins the codec's byte stability: encoding the
// same compile twice is identical, and encode→decode→re-encode reproduces
// the original file byte for byte (the acceptance criterion that makes
// content addressing meaningful).
func TestEncodeDeterministic(t *testing.T) {
	for _, name := range []string{"tinycnn", "tinymlp", "tinyresnet"} {
		c, opt := compileTiny(t, name, compiler.StrategyDP)
		first, err := Encode(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Encode(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: two encodings of one compile differ", name)
		}
		decoded, meta, err := Decode(first)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		reencoded, err := Encode(decoded, compiler.Options{Strategy: meta.Strategy})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, reencoded) {
			t.Fatalf("%s: encode→decode→re-encode is not byte-stable", name)
		}
	}
}

// TestDecodeMeta checks the header survives the round trip and describes
// the artifact accurately, both via full Decode and the header-only
// ReadMeta path.
func TestDecodeMeta(t *testing.T) {
	c, opt := compileTiny(t, "tinycnn", compiler.StrategyDuplication)
	data, err := Encode(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	headerOnly, err := ReadMeta(data[:200])
	if err != nil {
		t.Fatalf("ReadMeta on 200-byte prefix: %v", err)
	}
	if headerOnly != meta {
		t.Fatalf("ReadMeta %+v != Decode meta %+v", headerOnly, meta)
	}
	if meta.GraphName != "tinycnn" || meta.Strategy != compiler.StrategyDuplication {
		t.Fatalf("meta misdescribes artifact: %+v", meta)
	}
	if meta.GraphFP != GraphFingerprint(c.Graph) || meta.ConfigFP != ConfigFingerprint(c.Cfg) {
		t.Fatal("meta fingerprints disagree with content fingerprints")
	}
	if meta.Cores != len(c.Programs) || meta.GlobalBytes != c.GlobalBytes() {
		t.Fatalf("meta summary wrong: %+v", meta)
	}
	if meta.Key() != Key(GraphFingerprint(c.Graph), c.Cfg, opt) {
		t.Fatal("meta key disagrees with content key")
	}
}

// TestDecodeRejectsDamage walks every byte of a real artifact, flips one
// bit, and requires decode to fail with a typed error — the whole-file
// checksum plus structural validation must leave no silent corruption.
// Truncations at every length must fail the same way.
func TestDecodeRejectsDamage(t *testing.T) {
	c, opt := compileTiny(t, "tinymlp", compiler.StrategyGeneric)
	data, err := Encode(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 37
	}
	for i := 0; i < len(data); i += stride {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		if _, _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("bit flip at byte %d: untyped error %v", i, err)
		}
	}
	for n := 0; n < len(data); n += stride {
		if _, _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}
}

// TestDecodeRejectsVersions pins the version gate: future codec versions
// and non-artifact files fail with ErrVersion specifically.
func TestDecodeRejectsVersions(t *testing.T) {
	c, opt := compileTiny(t, "tinycnn", compiler.StrategyGeneric)
	data, err := Encode(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	bumped := bytes.Clone(data)
	bumped[4]++ // version low byte
	if _, _, err := Decode(bumped); !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version: %v", err)
	}
	if _, _, err := Decode([]byte("not an artifact at all, clearly")); !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-artifact: %v", err)
	}
	if _, err := ReadMeta([]byte("ELF\x7f junk")); !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadMeta non-artifact: %v", err)
	}
}

// TestKeyCarriesVersion: one compile's key differs between codec versions,
// so binaries of two versions sharing a store directory address different
// files instead of each dropping the other's as undecodable (ErrVersion).
func TestKeyCarriesVersion(t *testing.T) {
	c, opt := compileTiny(t, "tinycnn", compiler.StrategyGeneric)
	data, err := Encode(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != Version || meta.Key() != Key(GraphFingerprint(c.Graph), c.Cfg, opt) {
		t.Fatalf("header key %s (version %d) != content key %s", meta.Key(), meta.Version, Key(GraphFingerprint(c.Graph), c.Cfg, opt))
	}
	prev := meta
	prev.Version = Version - 1
	if prev.Key() == meta.Key() {
		t.Fatalf("versions %d and %d share key %s", Version-1, Version, meta.Key())
	}
}

// TestEncodeRefusesOtherStrategy: options naming a strategy other than
// the plan's are refused, rather than encoded into a file whose key and
// header disagree.
func TestEncodeRefusesOtherStrategy(t *testing.T) {
	c, _ := compileTiny(t, "tinycnn", compiler.StrategyGeneric)
	if _, err := Encode(c, compiler.Options{Strategy: compiler.StrategyDP}); err == nil {
		t.Fatal("a generic plan encoded under dp options")
	}
}

// TestDecodeRejectsBadMaps: a memory map that cannot describe a core of the
// artifact's configuration — an arena starting below the core's constant
// pool (the length of its pool segment) or past local memory, a macro group
// the core does not have, or a field that would wrap into a valid one — is
// corruption, however well the file checksums.
func TestDecodeRejectsBadMaps(t *testing.T) {
	cfg := arch.DefaultConfig()
	for name, bad := range map[string]func(m *sim.MemMap){
		"arena below the pool":    func(m *sim.MemMap) { m.ArenaMin = m.PoolEnd - 1 },
		"arena past local memory": func(m *sim.MemMap) { m.ArenaMin = int32(cfg.Core.LocalMemBytes) + 1 },
		"group past the last one": func(m *sim.MemMap) { m.Groups |= 1 << cfg.Core.NumMacroGroups },
	} {
		c, opt := compileTiny(t, "tinycnn", compiler.StrategyGeneric)
		m := *c.Programs[1].Map
		if m.PoolEnd == 0 {
			t.Fatal("core 1 has no constant pool")
		}
		bad(&m)
		c.Programs[1].Map = &m
		data, err := Encode(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}

	// An arena past int32 must not wrap into a valid one.
	c, opt := compileTiny(t, "tinycnn", compiler.StrategyGeneric)
	data, err := Encode(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Programs[1].Map
	pair := func(arena uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(nil, arena), uint64(m.Groups))
	}
	at := bytes.Index(data, pair(uint64(m.ArenaMin)))
	if at < 0 || bytes.Index(data[at+1:], pair(uint64(m.ArenaMin))) >= 0 {
		t.Fatal("core 1's memory map is not found once in the file")
	}
	body := slices.Concat(data[:at], pair(1<<32|uint64(m.ArenaMin)), data[at+len(pair(uint64(m.ArenaMin))):len(data)-checksumLen])
	if _, _, err := decodeVerified(body); !errors.Is(err, ErrCorrupt) {
		t.Errorf("an arena of 2^32 + %d: decode = %v, want ErrCorrupt", m.ArenaMin, err)
	}
}

// TestEncodeRejectsMaplessProgram: a hand-built program with no memory map
// has none to store, so encoding it is an error, not a panic.
func TestEncodeRejectsMaplessProgram(t *testing.T) {
	c, opt := compileTiny(t, "tinycnn", compiler.StrategyGeneric)
	c.Programs[1].Map = nil
	if _, err := Encode(c, opt); err == nil || !strings.Contains(err.Error(), "core 1 has no memory map") {
		t.Fatalf("Encode = %v, want core 1's missing map named", err)
	}
}
