package cimflow

// LiveChips reports the chips of the engine's pool, idle or running.
func (e *Engine) LiveChips() int { return e.pool.Live() }

// CompileContexts reports the graph frontends the engine's compile cache
// holds: every strategy of one model shares one.
func (e *Engine) CompileContexts() int { return e.cache.Contexts() }
