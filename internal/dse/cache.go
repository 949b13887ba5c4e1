package dse

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/artifact"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
)

// CompileSource says where a compiled artifact came from.
type CompileSource int

const (
	// SourceFresh: the compiler ran.
	SourceFresh CompileSource = iota
	// SourceStore: decoded from the attached artifact store.
	SourceStore
	// SourceMemory: served from this cache's in-memory tier.
	SourceMemory
)

// String names the source for logs.
func (s CompileSource) String() string {
	switch s {
	case SourceFresh:
		return "compiled"
	case SourceStore:
		return "loaded from store"
	case SourceMemory:
		return "cached in memory"
	}
	return fmt.Sprintf("CompileSource(%d)", int(s))
}

// CompileInfo reports how a compile was satisfied: the tier that produced
// the artifact and how long that production took. For SourceMemory the
// duration is the original cost of filling the entry, not the (trivial)
// lookup time.
type CompileInfo struct {
	Source   CompileSource
	Duration time.Duration
}

// cacheEntry is one singleflight compilation slot: the first caller
// compiles, concurrent and later callers share the result.
type cacheEntry struct {
	once     sync.Once
	cfg      arch.Config // cache-owned copy referenced by compiled.Cfg
	compiled *compiler.Compiled
	info     CompileInfo
	err      error
}

// ctxEntry is one singleflight frontend slot: the first caller runs the
// compiler frontend (validation + condensation), later callers share the
// CompileContext.
type ctxEntry struct {
	once sync.Once
	cx   *compiler.CompileContext
	err  error
}

// CompileCache deduplicates compilation across sweep points that share a
// (model, config, strategy) triple — e.g. the Fig. 7 sweep reusing every
// generic-strategy artifact of Fig. 6 — and holds one CompileContext per
// distinct graph, so the compiler frontend runs once per model no matter
// how many architecture points or strategies a sweep visits. It is safe
// for concurrent use; a point compiled by one worker is awaited, not
// recompiled, by the others. It is the only place a compile is
// deduplicated: the attached artifact.Store is a plain disk tier it reads
// and writes inside each key's one slot.
type CompileCache struct {
	mu         sync.Mutex
	store      *artifact.Store
	entries    map[string]*cacheEntry
	ctxs       map[string]*ctxEntry
	compiles   atomic.Int64
	hits       atomic.Int64
	storeLoads atomic.Int64
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{
		entries: make(map[string]*cacheEntry),
		ctxs:    make(map[string]*ctxEntry),
	}
}

// context returns the shared CompileContext for g, whose
// artifact.GraphFingerprint is fp, running the compiler frontend at most
// once per fingerprint.
func (c *CompileCache) context(fp string, g *model.Graph) (*compiler.CompileContext, error) {
	c.mu.Lock()
	e, ok := c.ctxs[fp]
	if !ok {
		e = &ctxEntry{}
		c.ctxs[fp] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.cx, e.err = compiler.NewContext(g) })
	return e.cx, e.err
}

// Contexts reports how many distinct graph frontends the cache holds.
func (c *CompileCache) Contexts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ctxs)
}

// SetStore attaches an on-disk artifact store as the cache's second tier:
// a memory miss loads from the store before compiling, and fresh compiles
// are persisted for the next process. The caller keeps ownership of the
// store's lifecycle (Close). Attach before concurrent use.
func (c *CompileCache) SetStore(s *artifact.Store) { c.store = s }

// Store returns the attached store tier, if any.
func (c *CompileCache) Store() *artifact.Store { return c.store }

// Compile returns the compiled artifact for (g, cfg, opt), compiling at
// most once per distinct key through the graph's shared CompileContext.
// The returned Compiled references a cache-owned copy of cfg, so callers
// may let cfg go out of scope.
func (c *CompileCache) Compile(g *model.Graph, cfg *arch.Config, opt compiler.Options) (*compiler.Compiled, error) {
	compiled, _, err := c.CompileWithInfo(g, cfg, opt)
	return compiled, err
}

// CompileWithInfo is Compile plus provenance: which tier satisfied the
// call (fresh compile, store load, or in-memory hit) and how long the
// artifact originally took to produce. Lookup order is memory → store →
// compile; fresh compiles are written back to the store when one is
// attached. Entries are keyed by artifact.Key with the graph's name in
// front, so a renamed copy of a graph gets a Compiled of its own name
// (sharing the original's programs).
func (c *CompileCache) CompileWithInfo(g *model.Graph, cfg *arch.Config, opt compiler.Options) (*compiler.Compiled, CompileInfo, error) {
	return c.compile(artifact.GraphFingerprint(g), g, cfg, opt)
}

// compile is CompileWithInfo of g, whose artifact.GraphFingerprint is fp.
func (c *CompileCache) compile(fp string, g *model.Graph, cfg *arch.Config, opt compiler.Options) (*compiler.Compiled, CompileInfo, error) {
	storeKey := artifact.Key(fp, cfg, opt)
	key := g.Name + "@" + storeKey
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{cfg: *cfg}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	leader := false
	e.once.Do(func() {
		leader = true
		start := time.Now()
		e.compiled, e.info.Source, e.err = c.produce(fp, g, &e.cfg, opt, storeKey)
		if e.compiled != nil && e.compiled.Graph.Name != g.Name {
			// The frontend and the store are shared by structure alone;
			// an entry, keyed by name too, carries its caller's name.
			named := *e.compiled
			named.Graph = g
			e.compiled = &named
		}
		e.info.Duration = time.Since(start)
	})
	info := e.info
	if !leader {
		info.Source = SourceMemory
	}
	return e.compiled, info, e.err
}

// produce fills one entry: the attached store's artifact under key if it
// holds a usable one, else a fresh compile, written back to the store.
// Store read and write failures never fail the compile — the store
// degrades to a pass-through — but a closed store fails with
// artifact.ErrClosed.
func (c *CompileCache) produce(fp string, g *model.Graph, cfg *arch.Config, opt compiler.Options, key string) (*compiler.Compiled, CompileSource, error) {
	if c.store != nil {
		compiled, _, err := c.store.Load(key)
		if err == nil {
			c.storeLoads.Add(1)
			return compiled, SourceStore, nil
		}
		if errors.Is(err, artifact.ErrClosed) {
			return nil, SourceFresh, err
		}
	}
	c.compiles.Add(1)
	cx, err := c.context(fp, g)
	if err != nil {
		return nil, SourceFresh, err
	}
	compiled, err := cx.Compile(cfg, opt)
	if err == nil && c.store != nil {
		c.store.Save(compiled, opt) // best effort; a full disk must not fail the compile
	}
	return compiled, SourceFresh, err
}

// CompileCalls reports how many real compiler.Compile invocations the
// cache has performed (misses).
func (c *CompileCache) CompileCalls() int64 { return c.compiles.Load() }

// Hits reports how many lookups were served from the cache.
func (c *CompileCache) Hits() int64 { return c.hits.Load() }

// StoreLoads reports how many compiles were satisfied by decoding an
// artifact from the attached store instead of running the compiler.
func (c *CompileCache) StoreLoads() int64 { return c.storeLoads.Load() }

// Len reports the number of distinct compiled artifacts held.
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
