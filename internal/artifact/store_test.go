package artifact

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cimflow/internal/compiler"
)

func openTestStore(t *testing.T, opts ...StoreOption) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreSaveLoad checks the basic persistence contract: Save publishes
// under the content key, Load returns an artifact with the same content
// fingerprints, and a missing key is ErrNotFound.
func TestStoreSaveLoad(t *testing.T) {
	s := openTestStore(t)
	c, opt := compileTiny(t, "tinycnn", compiler.StrategyDP)
	key, err := s.Save(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if key != Key(c.Graph, c.Cfg, opt) {
		t.Fatalf("save key %s != content key", key)
	}
	loaded, meta, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if GraphFingerprint(loaded.Graph) != GraphFingerprint(c.Graph) ||
		ConfigFingerprint(loaded.Cfg) != ConfigFingerprint(c.Cfg) {
		t.Fatal("loaded artifact has different content fingerprints")
	}
	if meta.GraphName != "tinycnn" {
		t.Fatalf("meta: %+v", meta)
	}
	if _, _, err := s.Load("00112233445566778899aabbccddeeff"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	st := s.Stats()
	if st.Saves != 1 || st.Loads != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStoreTwoProcess simulates two processes sharing one directory (flock
// is per open file description, so two Stores in one process conflict and
// share exactly like two processes): both open shared, an artifact saved
// by one loads from the other, and exclusive maintenance access is refused
// until every shared holder closes.
func TestStoreTwoProcess(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("advisory locking is unix-only")
	}
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatalf("second shared open: %v", err)
	}

	c, opt := compileTiny(t, "tinyresnet", compiler.StrategyDP)
	key, err := a.Save(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Load(key); err != nil {
		t.Fatalf("artifact saved by store A does not load from store B: %v", err)
	}

	if _, err := OpenExclusive(dir); !errors.Is(err, ErrStoreBusy) {
		t.Fatalf("exclusive open under two shared holders: %v", err)
	}
	a.Close()
	if _, err := OpenExclusive(dir); !errors.Is(err, ErrStoreBusy) {
		t.Fatalf("exclusive open under one shared holder: %v", err)
	}
	b.Close()
	ex, err := OpenExclusive(dir)
	if err != nil {
		t.Fatalf("exclusive open of idle store: %v", err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrStoreBusy) {
		t.Fatalf("shared open under exclusive holder: %v", err)
	}
	ex.Close()
}

// TestStoreCorruptDrop checks the self-healing path: a damaged artifact
// fails its load with a typed error and is removed, so the next lookup is
// a plain miss. (dse.TestCompileCacheDedup checks that the compile cache
// recompiles and re-saves over it.)
func TestStoreCorruptDrop(t *testing.T) {
	s := openTestStore(t)
	c, opt := compileTiny(t, "tinycnn", compiler.StrategyGeneric)
	key, err := s.Save(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt load: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt artifact not removed")
	}
	if _, _, err := s.Load(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second load of dropped key: %v", err)
	}
	if s.Stats().Corrupt != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestStoreMismatchedKey checks that a well-formed artifact renamed to the
// wrong key is reported as ErrMismatch, not served under a false identity.
func TestStoreMismatchedKey(t *testing.T) {
	s := openTestStore(t)
	c, opt := compileTiny(t, "tinymlp", compiler.StrategyDP)
	key, err := s.Save(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	wrong := "ffffffffffffffffffffffffffffffff"
	if err := os.Rename(s.path(key), s.path(wrong)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(wrong); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched key: %v", err)
	}
}

// TestStoreLRUCap checks the size cap: saving past WithMaxBytes evicts the
// least-recently-used artifacts, and a load refreshes an artifact's clock
// so hot entries survive.
func TestStoreLRUCap(t *testing.T) {
	names := []string{"tinycnn", "tinymlp", "tinyresnet"}
	var sizes []int64
	compiled := map[string]*compiler.Compiled{}
	var opt compiler.Options
	for _, name := range names {
		c, o := compileTiny(t, name, compiler.StrategyGeneric)
		compiled[name], opt = c, o
		data, err := Encode(c, o)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, int64(len(data)))
	}
	// Cap fits the two largest artifacts but not all three.
	var cap int64
	for _, n := range sizes {
		cap += n
	}
	cap -= sizes[0]/2 + 1

	s := openTestStore(t, WithMaxBytes(cap))
	keys := map[string]string{}
	for i, name := range names {
		// mtime resolution can be coarse; space the writes out.
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		key, err := s.Save(compiled[name], opt)
		if err != nil {
			t.Fatal(err)
		}
		keys[name] = key
	}
	if _, _, err := s.Load(keys[names[0]]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest artifact should have been evicted: %v", err)
	}
	for _, name := range names[1:] {
		if _, _, err := s.Load(keys[name]); err != nil {
			t.Fatalf("recent artifact %s evicted: %v", name, err)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}

// TestStoreGC checks the maintenance sweep: corrupt artifacts and stray
// temp files from crashed writers are removed, intact artifacts survive.
func TestStoreGC(t *testing.T) {
	s := openTestStore(t)
	c, opt := compileTiny(t, "tinyse", compiler.StrategyDP)
	key, err := s.Save(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	junk := s.path("deadbeefdeadbeefdeadbeefdeadbeef")
	if err := os.WriteFile(junk, []byte("CFAR garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(s.Dir(), "tmp-12345"+artifactExt)
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	bad, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 {
		t.Fatalf("verify found %d bad files, want 1: %v", len(bad), bad)
	}
	removed, freed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || freed <= 0 {
		t.Fatalf("gc removed %d files (%d bytes), want 2", removed, freed)
	}
	if _, _, err := s.Load(key); err != nil {
		t.Fatalf("gc removed a healthy artifact: %v", err)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != key || entries[0].Err != nil {
		t.Fatalf("post-gc listing: %+v", entries)
	}
	if entries[0].Meta.GraphName != "tinyse" {
		t.Fatalf("listing meta: %+v", entries[0].Meta)
	}
}

// TestStoreClosed checks that every operation on a closed store fails with
// ErrClosed and that Close is idempotent.
func TestStoreClosed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, opt := compileTiny(t, "tinycnn", compiler.StrategyGeneric)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := s.Save(c, opt); !errors.Is(err, ErrClosed) {
		t.Fatalf("save after close: %v", err)
	}
	if _, _, err := s.Load("00"); !errors.Is(err, ErrClosed) {
		t.Fatalf("load after close: %v", err)
	}
	if _, err := s.List(); !errors.Is(err, ErrClosed) {
		t.Fatalf("list after close: %v", err)
	}
}
