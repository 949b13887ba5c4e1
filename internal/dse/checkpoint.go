package dse

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cimflow/internal/compiler"
)

// SavedResult is the persisted form of one completed point: its metrics,
// or the error message if it failed, with the ErrInfeasible behind it when
// the chip could not hold the point.
type SavedResult struct {
	Label      string                  `json:"label"`
	Metrics    Metrics                 `json:"metrics"`
	CostEst    float64                 `json:"cost_est,omitempty"`
	Err        string                  `json:"err,omitempty"`
	Infeasible *compiler.ErrInfeasible `json:"infeasible,omitempty"`
}

// restore rebuilds the result of p from its saved form, marked Cached.
func (s SavedResult) restore(p Point) PointResult {
	r := PointResult{Point: p, Metrics: s.Metrics, CostEst: s.CostEst, Cached: true}
	switch {
	case s.Infeasible != nil:
		r.Err = savedInfeasible{s.Err, s.Infeasible}
	case s.Err != "":
		r.Err = errors.New(s.Err)
	}
	return r
}

// savedInfeasible is a restored infeasible point's error: the saved text,
// unwrapping to the ErrInfeasible so a resumed run classes it as before.
type savedInfeasible struct {
	msg string
	inf *compiler.ErrInfeasible
}

func (e savedInfeasible) Error() string { return e.msg }
func (e savedInfeasible) Unwrap() error { return e.inf }

// checkpointFile is the on-disk JSON layout.
type checkpointFile struct {
	Name string                 `json:"name,omitempty"`
	Done map[string]SavedResult `json:"done"`
}

// Checkpoint persists completed sweep points so an interrupted sweep can
// resume without re-simulating. Points are keyed by Point.Key — model,
// strategy, hardware fingerprint and seed — so a checkpoint survives
// reordering or extension of the spec, and a changed knob never matches a
// stale entry. The zero path keeps the checkpoint in memory only.
type Checkpoint struct {
	mu   sync.Mutex
	path string
	data checkpointFile
}

// NewCheckpoint returns an empty checkpoint persisted at path (path may be
// empty for a memory-only checkpoint, useful in tests).
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, data: checkpointFile{Done: make(map[string]SavedResult)}}
}

// LoadCheckpoint opens a checkpoint file, returning an empty checkpoint if
// the file does not exist yet.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewCheckpoint(path), nil
	}
	if err != nil {
		return nil, fmt.Errorf("dse: reading checkpoint: %w", err)
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("dse: parsing checkpoint %s: %w", path, err)
	}
	c.path = path
	return c, nil
}

// DecodeCheckpoint parses checkpoint bytes into a memory-only checkpoint.
// It is the single entry point for untrusted checkpoint data (LoadCheckpoint
// reading a resume file, and the fuzz target): it either returns an error or
// a checkpoint whose encoding round-trips.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	c := NewCheckpoint("")
	if err := json.Unmarshal(data, &c.data); err != nil {
		return nil, fmt.Errorf("dse: decoding checkpoint: %w", err)
	}
	if c.data.Done == nil {
		c.data.Done = make(map[string]SavedResult)
	}
	return c, nil
}

// Encode renders the checkpoint in its on-disk form.
func (c *Checkpoint) Encode() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.encodeLocked()
}

// encodeLocked is Encode with c.mu held.
func (c *Checkpoint) encodeLocked() ([]byte, error) {
	data, err := json.MarshalIndent(&c.data, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dse: encoding checkpoint: %w", err)
	}
	return append(data, '\n'), nil
}

// Lookup returns the saved result for a point key, if present.
func (c *Checkpoint) Lookup(key string) (SavedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.data.Done[key]
	return s, ok
}

// Entries returns a copy of every recorded entry, keyed as recorded, so a
// test can compare two checkpoints entry by entry.
func (c *Checkpoint) Entries() map[string]SavedResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]SavedResult, len(c.data.Done))
	for k, v := range c.data.Done {
		out[k] = v
	}
	return out
}

// Len reports how many completed points the checkpoint holds.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.data.Done)
}

// Record stores a completed point under key and flushes the file, so
// progress survives a crash mid-sweep. Flush errors are deliberately
// swallowed here — a failing checkpoint must not abort a healthy sweep —
// but are surfaced by the final explicit Save.
func (c *Checkpoint) Record(key string, r *PointResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := SavedResult{Label: r.Point.Label(), Metrics: r.Metrics, CostEst: r.CostEst}
	if r.Err != nil {
		s.Err = r.Err.Error()
		errors.As(r.Err, &s.Infeasible)
	}
	c.data.Done[key] = s
	_ = c.flushLocked()
}

// Save writes the checkpoint to its path (no-op for memory-only).
func (c *Checkpoint) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// flushLocked writes atomically via a temp file + rename.
func (c *Checkpoint) flushLocked() error {
	if c.path == "" {
		return nil
	}
	data, err := c.encodeLocked()
	if err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return fmt.Errorf("dse: checkpoint dir: %w", err)
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dse: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("dse: committing checkpoint: %w", err)
	}
	return nil
}
