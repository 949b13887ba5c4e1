package main

import (
	"flag"
	"testing"
	"time"

	"cimflow"
)

// TestReplayCountsReplayedRequestsOnly: -check's verification requests are
// routed through a router of their own, so the replay's report names no
// "verify" tenant and counts only the hedges of replayed requests.
func TestReplayCountsReplayedRequestsOnly(t *testing.T) {
	var f routerFlags
	fs := flag.NewFlagSet("cimflow-router", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse([]string{"-replicas", "1", "-models", "tinymlp", "-check", "2"}); err != nil {
		t.Fatal(err)
	}
	models := []string{"tinymlp"}
	spec := cimflow.TraceSpec{
		Duration: 500 * time.Millisecond,
		RPS:      20,
		Models:   models,
		Seed:     f.traceSeed,
		Tenants:  []cimflow.TraceTenant{{Name: "default", Weight: 1, Deadline: f.timeout}},
	}
	rep, err := replayOnce(&f, models, nil, spec, f.hedgeDelay)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("the replay sent nothing")
	}
	if _, ok := rep.Router.Tenants["verify"]; ok {
		t.Errorf("the replay's router counted -check's requests: tenants %v", rep.Router.Tenants)
	}
	if rep.Router.HedgesLaunched > rep.Sent {
		t.Errorf("%d hedges launched for %d replayed requests", rep.Router.HedgesLaunched, rep.Sent)
	}
}
