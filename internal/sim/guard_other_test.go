//go:build !unix

package sim

import "testing"

// guardedBytes returns n bytes that end exactly at the end of their backing
// array. Without a page to protect behind them, a read past the slice is
// only caught when it changes a result.
func guardedBytes(t testing.TB, n int) []byte { return make([]byte, n) }
