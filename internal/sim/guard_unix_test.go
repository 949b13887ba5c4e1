//go:build unix

package sim

import (
	"syscall"
	"testing"
)

// guardedBytes returns n writable bytes that end exactly at the end of their
// mapping, with an inaccessible page behind them: a load or store past the
// slice faults instead of reading whatever the allocator put there.
func guardedBytes(t testing.TB, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n + page - 1) / page * page
	m, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(m); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(m[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return m[size-n : size : size]
}
