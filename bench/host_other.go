//go:build !unix

package main

import "time"

// rusage is unavailable off unix; the host.cpu_* and host.peak_rss_*
// metrics read 0 there.
func rusage() (cpu time.Duration, maxRSSKB int64) { return 0, 0 }
