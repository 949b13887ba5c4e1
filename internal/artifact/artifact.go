// Package artifact names compiled models and serializes them. Key, with
// ConfigFingerprint and GraphFingerprint, is the identity of a compile —
// graph, architecture, strategy and codec version — that the in-memory
// compile caches (the engine's, dse.CompileCache) key their entries by and
// a DSE point is named by.
//
// The rest — a versioned, deterministic binary codec for compiler.Compiled
// (Encode, Decode) and Store, a flat directory of <key>.cfa files — has one
// caller, the frozen benchmark walk in bench/layers.go, which times an
// encode, a decode, a save and a load. The codec serializes only primary
// state — the architecture description, the graph, the CG-level plan, the
// raw ISA instruction words, the global memory layout and the constant-pool
// segments. Everything derived (MVM geometries, plan indexes, predecoded
// micro-ops) is recomputed on load through the same code paths a fresh
// compile uses, so nothing executable is ever trusted from disk. Every file
// carries a magic/version header, the input fingerprints, and a whole-file
// SHA-256; decoding re-derives the fingerprints from the decoded content
// and refuses files whose identity does not match what the header claims.
// Store writes atomically (temp file + rename) and removes a file that
// fails to decode on load.
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
// version, the graph fingerprint (GraphFingerprint, which the caller
// computes once for all its lookups of the graph), the architecture
// fingerprint and the strategy.
func Key(graphFP string, cfg *arch.Config, opt compiler.Options) string {
	return keyFrom(Version, graphFP, ConfigFingerprint(cfg), opt.Strategy)
}

// keyFrom builds the store key from already-computed fingerprints. The
// codec version is part of it, so binaries of two versions sharing one
// directory address different files instead of each dropping the other's
// as undecodable.
func keyFrom(version int, graphFP, cfgFP string, s compiler.Strategy) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s|%s|%d", version, graphFP, cfgFP, s)))
	return hex.EncodeToString(sum[:16])
}
