package main

import (
	"strings"
	"testing"
)

// TestModeFlagsRejected: a flag that only one mode reads is refused in the
// other modes, even at its default value, instead of being dropped; the
// same flags in their own mode get past the check (and fail later, on a
// missing spec or an unknown figure, before anything runs).
func TestModeFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", "none.json", "-models", "tinycnn"}, "-models needs -fig"},
		{[]string{"-spec", "none.json", "-budget", "4"}, "-budget needs -search"},
		{[]string{"-spec", "none.json", "-seed", "1"}, "-seed needs -search"},
		{[]string{"-fig", "5", "-budget", "4"}, "-budget needs -search"},
		{[]string{"-fig", "5", "-seed", "7"}, "-seed needs -search"},
		{[]string{"-fig", "5", "-search", "halving"}, "-search needs -spec"},
		{[]string{"-fig", "5", "-pareto"}, "-pareto needs -spec"},
		{[]string{"-spec", "none.json", "-search", "halving", "-budget", "4", "-seed", "2"}, "none.json"},
		{[]string{"-fig", "9", "-models", "tinycnn"}, "-fig must be 5, 6, 7 or all"},
	} {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want it to name %q", c.args, err, c.want)
		}
	}
}
