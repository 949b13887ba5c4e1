package cimflow

import (
	"cimflow/internal/artifact"
	"cimflow/internal/dse"
)

// Artifact-store types re-exported from internal/artifact: the
// content-addressed on-disk store that gives compiled models a life beyond
// the process (warm serve restarts, sweep shards sharing compiles).
type (
	// ArtifactStore is a content-addressed on-disk cache of compiled
	// artifacts; attach one to an engine with WithArtifactStore.
	ArtifactStore = artifact.Store
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

// ErrStoreClosed reports an operation on a closed artifact store, matched
// with errors.Is.
var ErrStoreClosed = artifact.ErrClosed

// OpenArtifactStore opens (creating if needed) a content-addressed
// artifact store rooted at dir. Processes may share the directory; delete
// it to clean the store.
func OpenArtifactStore(dir string) (*ArtifactStore, error) {
	return artifact.Open(dir)
}
