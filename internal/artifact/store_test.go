package artifact

import (
	"errors"
	"os"
	"testing"

	"cimflow/internal/compiler"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
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
	if key != Key(GraphFingerprint(c.Graph), c.Cfg, opt) {
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

// TestStoreTwoProcess stands two stores on one directory, as two processes
// would: an artifact saved by one loads from the other.
func TestStoreTwoProcess(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir)
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	defer b.Close()

	c, opt := compileTiny(t, "tinyresnet", compiler.StrategyDP)
	key, err := a.Save(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Load(key); err != nil {
		t.Fatalf("artifact saved by store A does not load from store B: %v", err)
	}
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
}
