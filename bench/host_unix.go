//go:build unix

package main

import (
	"syscall"
	"time"
)

// rusage returns the process's CPU time so far and its peak resident set
// size in KB (Linux's ru_maxrss unit).
func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), int64(ru.Maxrss)
}
