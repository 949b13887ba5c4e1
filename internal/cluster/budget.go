package cluster

import "sync"

// bucket is the hedge budget: each admitted request credits a fraction of
// a token, each hedge or failover retry takes one, and the tokens cap at
// burst — so the extra load hedging adds is bounded at ~budget x the
// offered rate.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
}

// take consumes n tokens if available.
func (b *bucket) take(n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// credit adds n tokens, capped at burst.
func (b *bucket) credit(n float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = min(b.tokens+n, b.burst)
}
