package main

import (
	"sync"
	"time"
)

// clock is the time source of the open-loop generator; tests substitute a
// fake one to check the schedule arithmetic.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop offers n arrivals on a fixed schedule — arrival i is due at
// start + i*interval whether or not earlier ones completed — from one
// generator goroutine. Each arrival runs send in its own goroutine (never
// an extra OS thread) and is handed its due time, so latency is measured
// from when the request should have been sent: a stall in the system or in
// the generator is charged to every request it delays. A generator that
// falls behind sends the backlog immediately rather than skipping it. The
// returned lags are how late each arrival left the generator.
func openLoop(clk clock, n int, interval time.Duration, send func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, n)
	start := clk.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		lags[i] = clk.Now().Sub(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i, due)
		}()
	}
	wg.Wait()
	return lags
}

// closedLoop runs the given number of clients, each issuing its next
// request only after the previous one returned, until the duration has
// passed; it returns the wall time until the last client finished.
func closedLoop(clients int, d time.Duration, do func(client, i int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i == 0 || time.Since(start) < d; i++ {
				do(c, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
