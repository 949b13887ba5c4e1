package artifact

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"cimflow/internal/compiler"
)

// artifactExt is the on-disk file suffix for encoded artifacts.
const artifactExt = ".cfa"

// Stats counts a store's traffic since Open.
type Stats struct {
	Loads   int64 // artifacts decoded from disk
	Saves   int64 // artifacts written
	Misses  int64 // lookups that found no usable artifact
	Corrupt int64 // artifacts dropped after failing decode
}

// Store is a content-addressed artifact cache: a flat directory of
// <key>.cfa files keyed by compile-input fingerprints (Key). It is the disk
// tier only — it never compiles; deduplicating concurrent compiles of one
// key is dse.CompileCache's job. Any number of stores, in one process or
// many, may share a directory without a lock: Save writes a temp file and
// renames it into place, so a reader sees the old state or the whole new
// file, and Load unlinks only a file that fails to decode, which no reader
// could have used. Nothing bounds the directory's size; deleting it is the
// way to clean it. A Store is safe for concurrent use.
type Store struct {
	dir    string
	closed atomic.Bool

	loads, saves, misses, corrupt atomic.Int64
}

// Open opens (creating if needed) an artifact store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Loads:   s.loads.Load(),
		Saves:   s.saves.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// Close marks the store closed. Further operations fail with ErrClosed.
// Close is idempotent.
func (s *Store) Close() error {
	s.closed.Store(true)
	return nil
}

func (s *Store) checkOpen() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+artifactExt) }

// Load decodes the artifact stored under key. Missing files return
// ErrNotFound; files that fail decoding are removed (counted in
// Stats.Corrupt) and reported with their decode error.
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
	var meta Meta // the header just written names the compile: the graph is hashed once
	if err == nil {
		meta, err = ReadMeta(data)
	}
	if err != nil {
		return "", err
	}
	key := meta.Key()
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+artifactExt)
	if err != nil {
		return "", fmt.Errorf("artifact: staging %s: %w", key, err)
	}
	_, werr := tmp.Write(data)
	if err := errors.Join(werr, tmp.Close()); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("artifact: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("artifact: publishing %s: %w", key, err)
	}
	s.saves.Add(1)
	return key, nil
}
