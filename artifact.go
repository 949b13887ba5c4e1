package cimflow

import (
	"cimflow/internal/artifact"
	"cimflow/internal/dse"
)

// Artifact-store types re-exported from internal/artifact: the versioned
// compile-artifact codec and the content-addressed on-disk store that give
// compiled models a life beyond the process (warm serve restarts, sweep
// shards sharing compiles across machines).
type (
	// ArtifactStore is a content-addressed on-disk cache of compiled
	// artifacts; attach one to an engine with WithArtifactStore.
	ArtifactStore = artifact.Store
	// ArtifactMeta describes an encoded artifact (fingerprints, options,
	// size summary) without decoding its body.
	ArtifactMeta = artifact.Meta
	// ArtifactEntry is one stored artifact in an ArtifactStore listing.
	ArtifactEntry = artifact.Entry
	// ArtifactStats counts a store's traffic since it was opened.
	ArtifactStats = artifact.Stats
	// StoreOption configures OpenArtifactStore.
	StoreOption = artifact.StoreOption
	// CompileInfo reports which tier produced a session's compiled
	// artifact and how long that production took.
	CompileInfo = dse.CompileInfo
	// CompileSource is the tier in a CompileInfo.
	CompileSource = dse.CompileSource
)

// CompileInfo sources.
const (
	// CompileFresh: the compiler ran.
	CompileFresh = dse.SourceFresh
	// CompileStore: decoded from the artifact store.
	CompileStore = dse.SourceStore
	// CompileMemory: served from the in-memory compile cache.
	CompileMemory = dse.SourceMemory
)

// Artifact errors, matched with errors.Is.
var (
	// ErrArtifactCorrupt reports an artifact that failed structural
	// validation (truncation, bad checksum, content/header disagreement).
	ErrArtifactCorrupt = artifact.ErrCorrupt
	// ErrArtifactVersion reports an artifact from an incompatible codec
	// version, or a file that is not an artifact.
	ErrArtifactVersion = artifact.ErrVersion
	// ErrArtifactNotFound reports a store miss.
	ErrArtifactNotFound = artifact.ErrNotFound
	// ErrStoreClosed reports an operation on a closed artifact store.
	ErrStoreClosed = artifact.ErrClosed
	// ErrStoreBusy reports a store whose directory another process holds in
	// a conflicting lock mode (e.g. gc under a live server).
	ErrStoreBusy = artifact.ErrStoreBusy
)

// OpenArtifactStore opens (creating if needed) a content-addressed
// artifact store rooted at dir, holding a shared directory lock until the
// store — or the Engine owning it via WithArtifactStore — is closed.
func OpenArtifactStore(dir string, opts ...StoreOption) (*ArtifactStore, error) {
	return artifact.Open(dir, opts...)
}

// WithStoreMaxBytes caps an artifact store's total size; saves past the
// cap evict least-recently-used artifacts (default: unbounded).
func WithStoreMaxBytes(n int64) StoreOption { return artifact.WithMaxBytes(n) }
