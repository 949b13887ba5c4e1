package cimflow

// LiveChips reports the chips of the engine's pool, idle or running.
func (e *Engine) LiveChips() int { return e.pool.Live() }
