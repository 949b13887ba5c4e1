// Package artifact gives compiled models a life beyond the process: a
// versioned, deterministic binary codec for compiler.Compiled plus a
// content-addressed on-disk store keyed by the same graph + architecture +
// strategy fingerprints the in-memory compile caches already use.
//
// The codec serializes only primary state — the architecture description,
// the graph, the CG-level plan, the raw ISA instruction words, the global
// memory layout and the constant-pool segments. Everything derived (MVM
// geometries, plan indexes, predecoded micro-ops) is recomputed on load
// through the same code paths a fresh compile uses, so nothing executable
// is ever trusted from disk. Every file carries a magic/version header,
// the input fingerprints, and a whole-file SHA-256; decoding re-derives
// the fingerprints from the decoded content and refuses files whose
// identity does not match what the header claims.
//
// The store (Open / Store) is a flat directory of <key>.cfa files where
// the key is a hash of the compile inputs: writes are atomic
// (temp file + rename), reads refresh the file's LRU clock, and a
// size cap evicts least-recently-used artifacts. A shared flock marks the
// directory in use, so exclusive maintenance (cimflow-artifact gc) cannot
// run under a live reader; corrupt files are quarantined on load and
// swept by GC.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
)

// Typed failures, matched with errors.Is.
var (
	// ErrCorrupt reports an artifact that failed structural validation:
	// truncation, a bad checksum, an unknown encoding, or content whose
	// recomputed fingerprints disagree with its header. Corrupt files are
	// treated as cache misses and removed.
	ErrCorrupt = errors.New("artifact: corrupt")
	// ErrVersion reports an artifact written by an incompatible codec
	// version (or a file that is not an artifact at all).
	ErrVersion = errors.New("artifact: unsupported version")
	// ErrMismatch reports a well-formed artifact that belongs to different
	// compile inputs than the ones requested — a key collision or a file
	// renamed by hand.
	ErrMismatch = errors.New("artifact: fingerprint mismatch")
	// ErrNotFound reports a store miss.
	ErrNotFound = errors.New("artifact: not found")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("artifact: store closed")
	// ErrStoreBusy reports that another process holds the store's directory
	// lock in a conflicting mode (e.g. gc while a server is running).
	ErrStoreBusy = errors.New("artifact: store in use by another process")
)

// corruptf wraps a formatted reason in ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ConfigFingerprint returns a stable hardware identity for a configuration:
// the hex SHA-256 of its canonical JSON encoding with the cosmetic Name
// field cleared. Two configs agree on the fingerprint iff every
// architectural parameter agrees, so it is safe as a compile-cache and
// checkpoint key.
func ConfigFingerprint(cfg *arch.Config) string {
	c := *cfg
	c.Name = ""
	data, err := json.Marshal(&c)
	if err != nil {
		// Config is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("artifact: fingerprinting config: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// GraphFingerprint returns a stable structural identity for a model: the
// hex SHA-256 over every node's printed field values (the cosmetic graph
// Name is excluded, mirroring ConfigFingerprint). Two graphs agree iff every
// node, shape and quantization parameter agrees, so distinct models that
// happen to share a Name never share a compiled artifact. Unlike a JSON
// encoding, fmt tolerates non-finite quantization scales in user-built
// graphs.
func GraphFingerprint(g *model.Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d", len(g.Nodes))
	for _, n := range g.Nodes {
		fmt.Fprintf(h, "|%+v", *n)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Key returns the name of a compile: the hex SHA-256 of the codec
// version, the graph fingerprint, the architecture fingerprint and the
// strategy. Options.CodegenWorkers is excluded — it changes compile
// latency, never the artifact.
func Key(g *model.Graph, cfg *arch.Config, opt compiler.Options) string {
	return keyFrom(Version, GraphFingerprint(g), ConfigFingerprint(cfg), opt.Strategy)
}

// keyFrom builds the store key from already-computed fingerprints. The
// codec version is part of it, so binaries of two versions sharing one
// directory address different files instead of each dropping the other's
// as undecodable.
func keyFrom(version int, graphFP, cfgFP string, s compiler.Strategy) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s|%s|%d", version, graphFP, cfgFP, s)))
	return hex.EncodeToString(sum[:16])
}
