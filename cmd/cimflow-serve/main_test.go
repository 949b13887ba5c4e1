package main

import (
	"flag"
	"strings"
	"testing"

	"cimflow"
)

// parse registers the command's flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *serveFlags {
	t.Helper()
	var f serveFlags
	fs := flag.NewFlagSet("cimflow-serve", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestReplayCountsReplayedRequestsOnly: -check's requests are served by the
// same server before the trace, and the replay's report counts none of
// them: the server accepted exactly the report's requests plus -check per
// model.
func TestReplayCountsReplayedRequestsOnly(t *testing.T) {
	f := parse(t, "-models", "tinymlp", "-workers", "1", "-replay", "-check", "2",
		"-duration", "500ms", "-rps", "20", "-tenants", "a:1:2s,b:3:2s")
	engine, srv, err := build(f)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	defer srv.Close()
	rep, err := checkAndReplay(f, srv)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.Completed != rep.Sent {
		t.Fatalf("sent %d, completed %d: want every replayed request completed", rep.Sent, rep.Completed)
	}
	var sent int64
	for _, slo := range rep.Tenants {
		sent += slo.Sent
	}
	if len(rep.Tenants) != 2 || sent != rep.Sent {
		t.Errorf("tenants %+v: want a and b, summing to the %d sent", rep.Tenants, rep.Sent)
	}
	if accepted := srv.Metrics().Models["tinymlp"].Accepted; accepted != rep.Sent+2 {
		t.Errorf("server accepted %d requests, want the %d replayed + 2 checked", accepted, rep.Sent)
	}
}

// TestCheckFailsOnDifferentOutput: a served output that differs from the
// reference fails the check, and so the replay and the command (run's
// error is fatal). The reference here holds other weights.
func TestCheckFailsOnDifferentOutput(t *testing.T) {
	f := parse(t, "-models", "tinymlp", "-workers", "1")
	engine, srv, err := build(f)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	defer srv.Close()
	ref, err := cimflow.NewEngine(cimflow.DefaultConfig(),
		cimflow.WithStrategy(cimflow.StrategyDP), cimflow.WithSeed(f.seed+1))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	err = checkServed(srv, ref, []string{"tinymlp"}, 2)
	if err == nil || !strings.Contains(err.Error(), "differs from Session.Infer") {
		t.Fatalf("check against other weights: %v, want a mismatch", err)
	}

	same, err := cimflow.NewEngine(cimflow.DefaultConfig(),
		cimflow.WithStrategy(cimflow.StrategyDP), cimflow.WithSeed(f.seed))
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if err := checkServed(srv, same, []string{"tinymlp"}, 2); err != nil {
		t.Fatalf("check against the same weights: %v", err)
	}
}
