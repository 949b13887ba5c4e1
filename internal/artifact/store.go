package artifact

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cimflow/internal/compiler"
)

// artifactExt is the on-disk file suffix for encoded artifacts.
const artifactExt = ".cfa"

// lockName is the directory-lock file every open store holds an advisory
// lock on: shared for normal stores, exclusive for maintenance
// (OpenExclusive), so GC cannot shuffle files under a live reader in
// another process.
const lockName = ".lock"

// metaPrefixBytes bounds how much of a file List reads to describe it;
// headers are a few hundred bytes.
const metaPrefixBytes = 64 << 10

// StoreOption configures a Store at Open time.
type StoreOption func(*Store)

// WithMaxBytes caps the store's total artifact size; saves that push past
// the cap evict least-recently-used artifacts (0, the default, means
// unbounded).
func WithMaxBytes(n int64) StoreOption {
	return func(s *Store) { s.maxBytes = n }
}

// Stats counts a store's traffic since Open.
type Stats struct {
	Loads     int64 // artifacts decoded from disk
	Saves     int64 // artifacts written
	Misses    int64 // lookups that found no usable artifact
	Evictions int64 // artifacts removed by the LRU size cap
	Corrupt   int64 // artifacts dropped after failing decode
}

// Entry describes one stored artifact in a listing.
type Entry struct {
	Key     string
	Size    int64
	ModTime time.Time
	Meta    Meta
	// Err is set when the file's header could not be parsed; Meta is then
	// zero.
	Err error
}

// Store is a content-addressed artifact cache: a flat directory of
// <key>.cfa files keyed by compile-input fingerprints (Key). It is the disk
// tier only — it never compiles; deduplicating concurrent compiles of one
// key is dse.CompileCache's job. Writes are atomic (temp file + rename
// into place), loads refresh the artifact's LRU clock, and an optional
// size cap evicts least-recently-used entries. Two
// processes may share a directory: each holds a shared advisory lock while
// open, and because deletes only ever unlink (readers keep their open file;
// a missing file is an ordinary miss) concurrent eviction is safe.
// A Store is safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	lockf    *os.File

	mu     sync.Mutex
	closed bool

	loads, saves, misses, evictions, corrupt atomic.Int64
}

// Open opens (creating if needed) an artifact store rooted at dir, taking
// a shared directory lock for the store's lifetime. It fails with
// ErrStoreBusy if another process holds the directory exclusively (GC in
// progress).
func Open(dir string, opts ...StoreOption) (*Store, error) {
	return open(dir, false, opts...)
}

// OpenExclusive opens a store with the directory lock held exclusively,
// for maintenance that must not race other processes (cimflow-artifact
// gc). It fails with ErrStoreBusy while any other store — shared or
// exclusive — has the directory open.
func OpenExclusive(dir string, opts ...StoreOption) (*Store, error) {
	return open(dir, true, opts...)
}

func open(dir string, exclusive bool, opts ...StoreOption) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store: %w", err)
	}
	lockf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("artifact: opening store lock: %w", err)
	}
	if err := lockHandle(lockf, exclusive); err != nil {
		lockf.Close()
		if errors.Is(err, ErrStoreBusy) {
			return nil, fmt.Errorf("%w: %s", ErrStoreBusy, dir)
		}
		return nil, fmt.Errorf("artifact: locking store: %w", err)
	}
	s := &Store{dir: dir, lockf: lockf}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Loads:     s.loads.Load(),
		Saves:     s.saves.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

// Close releases the directory lock and marks the store closed. Further
// operations fail with ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := unlockHandle(s.lockf); err != nil {
		s.lockf.Close()
		return fmt.Errorf("artifact: unlocking store: %w", err)
	}
	return s.lockf.Close()
}

func (s *Store) checkOpen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+artifactExt) }

// Load decodes the artifact stored under key. Missing files return
// ErrNotFound; files that fail decoding are removed (counted in
// Stats.Corrupt) and reported with their decode error. A successful load
// refreshes the artifact's LRU clock.
func (s *Store) Load(key string) (*compiler.Compiled, Meta, error) {
	if err := s.checkOpen(); err != nil {
		return nil, Meta{}, err
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return nil, Meta{}, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, Meta{}, fmt.Errorf("artifact: reading %s: %w", key, err)
	}
	c, meta, err := Decode(data)
	if err != nil {
		// A file that cannot decode will never decode; drop it so the next
		// lookup recompiles instead of re-failing.
		s.corrupt.Add(1)
		s.misses.Add(1)
		os.Remove(path)
		return nil, Meta{}, err
	}
	if meta.Key() != key {
		// Well-formed, but someone else's artifact (a renamed file). Leave
		// it alone and report the mismatch.
		s.misses.Add(1)
		return nil, Meta{}, fmt.Errorf("%w: file %s holds artifact %s", ErrMismatch, key, meta.Key())
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort LRU touch
	s.loads.Add(1)
	return c, meta, nil
}

// Save encodes and stores a compiled artifact under its content key,
// returning the key. The write is atomic: the encoding goes to a temp file
// in the store directory and is renamed into place, so concurrent readers
// in any process see either the old state or the complete new file, never
// a partial one.
func (s *Store) Save(c *compiler.Compiled, opt compiler.Options) (string, error) {
	if err := s.checkOpen(); err != nil {
		return "", err
	}
	data, err := Encode(c, opt)
	if err != nil {
		return "", err
	}
	key := Key(GraphFingerprint(c.Graph), c.Cfg, opt)
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+artifactExt)
	if err != nil {
		return "", fmt.Errorf("artifact: staging %s: %w", key, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("artifact: writing %s: %w", key, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("artifact: publishing %s: %w", key, err)
	}
	s.saves.Add(1)
	if s.maxBytes > 0 {
		s.enforceCap(key)
	}
	return key, nil
}

// List describes every artifact in the store, sorted by key. Only file
// headers are read, so listing is cheap regardless of artifact sizes;
// files whose header cannot be parsed appear with Err set.
func (s *Store) List() ([]Entry, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	infos, err := s.files()
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(infos))
	for _, fi := range infos {
		e := Entry{Key: fi.key, Size: fi.size, ModTime: fi.mtime}
		e.Meta, e.Err = readMetaPrefix(s.path(fi.key))
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries, nil
}

// readMetaPrefix parses an artifact header from the file's leading bytes.
func readMetaPrefix(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	buf := make([]byte, metaPrefixBytes)
	n, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return Meta{}, err
	}
	return ReadMeta(buf[:n])
}

// Verify fully decodes every artifact in the store and reports the keys
// that fail with their errors (nil map means a clean store). Unlike Load,
// Verify does not remove failing files — that is GC's job — and does not
// touch LRU clocks.
func (s *Store) Verify() (map[string]error, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	infos, err := s.files()
	if err != nil {
		return nil, err
	}
	var bad map[string]error
	for _, fi := range infos {
		data, err := os.ReadFile(s.path(fi.key))
		if err != nil {
			if os.IsNotExist(err) {
				continue // evicted underneath us — fine
			}
		} else if _, meta, derr := Decode(data); derr != nil {
			err = derr
		} else if meta.Key() != fi.key {
			err = fmt.Errorf("%w: file %s holds artifact %s", ErrMismatch, fi.key, meta.Key())
		}
		if err != nil {
			if bad == nil {
				bad = map[string]error{}
			}
			bad[fi.key] = err
		}
	}
	return bad, nil
}

// GC sweeps the store: artifacts that fail a full decode (or sit under a
// mismatched key) are removed, then the size cap is enforced. It returns
// how many files were removed and how many bytes they held.
func (s *Store) GC() (removed int, freed int64, err error) {
	if err := s.checkOpen(); err != nil {
		return 0, 0, err
	}
	bad, err := s.Verify()
	if err != nil {
		return 0, 0, err
	}
	for key := range bad {
		path := s.path(key)
		if fi, err := os.Stat(path); err == nil {
			if os.Remove(path) == nil {
				removed++
				freed += fi.Size()
				s.corrupt.Add(1)
			}
		}
	}
	// Stray temp files from crashed writers.
	names, _ := os.ReadDir(s.dir)
	for _, de := range names {
		if strings.HasPrefix(de.Name(), "tmp-") && strings.HasSuffix(de.Name(), artifactExt) {
			path := filepath.Join(s.dir, de.Name())
			if fi, err := os.Stat(path); err == nil && os.Remove(path) == nil {
				removed++
				freed += fi.Size()
			}
		}
	}
	if s.maxBytes > 0 {
		r, f := s.enforceCap("")
		removed += r
		freed += f
	}
	return removed, freed, nil
}

type fileInfo struct {
	key   string
	size  int64
	mtime time.Time
}

// files lists the store's artifact files (key, size, mtime).
func (s *Store) files() ([]fileInfo, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: listing store: %w", err)
	}
	var out []fileInfo
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, artifactExt) || strings.HasPrefix(name, "tmp-") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue // deleted underneath us
		}
		out = append(out, fileInfo{
			key:   strings.TrimSuffix(name, artifactExt),
			size:  fi.Size(),
			mtime: fi.ModTime(),
		})
	}
	return out, nil
}

// enforceCap evicts least-recently-used artifacts until the store fits the
// size cap. keep, if non-empty, pins one key (the artifact just written)
// so a save can never evict its own result.
func (s *Store) enforceCap(keep string) (removed int, freed int64) {
	infos, err := s.files()
	if err != nil {
		return 0, 0
	}
	var total int64
	for _, fi := range infos {
		total += fi.size
	}
	if total <= s.maxBytes {
		return 0, 0
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].mtime.Before(infos[j].mtime) })
	for _, fi := range infos {
		if total <= s.maxBytes {
			break
		}
		if fi.key == keep {
			continue
		}
		if os.Remove(s.path(fi.key)) == nil {
			total -= fi.size
			removed++
			freed += fi.size
			s.evictions.Add(1)
		}
	}
	return removed, freed
}
