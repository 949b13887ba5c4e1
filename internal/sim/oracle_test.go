package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// The simulator's two oracles: the reference executor (refexec_test.go)
// holds what a program computes, every register and every byte of every
// memory; testdata/golden_stats.json holds what it costs, the full report of
// every hand-written program (and a digest of every generated scalar stream's
// outcome). A change to the cycle or energy model shows up as a diff of that
// file, and the diff is the review.

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_stats.json with the rows the tests this invocation selects produce")

const goldenStatsPath = "testdata/golden_stats.json"

// goldenRow is what the table pins of one run: the report — Lanes set to 1,
// a lane-batched run's timing being a one-lane run's — and the error text,
// or the digest of a generated stream's outcome.
type goldenRow struct {
	Err    string `json:"err,omitempty"`
	Stats  *Stats `json:"stats,omitempty"`
	Digest string `json:"digest,omitempty"`
}

// golden is the table as read at start-up (want) and, under -update, the rows
// this invocation produced (got), merged into it when the tests are done.
var golden struct {
	want, got map[string]json.RawMessage
	err       error
}

func TestMain(m *testing.M) {
	flag.Parse()
	data, err := os.ReadFile(goldenStatsPath)
	if err == nil {
		err = json.Unmarshal(data, &golden.want)
	}
	if err != nil && !*updateGolden {
		golden.err = fmt.Errorf("%v (regenerate with: go test ./internal/sim -update)", err)
	}
	golden.got = map[string]json.RawMessage{}
	code := m.Run()
	if *updateGolden && len(golden.got) > 0 { // one row a line, keys sorted
		rows := maps.Clone(golden.got)
		for k, v := range golden.want {
			if _, ok := rows[k]; !ok {
				rows[k] = v
			}
		}
		var lines []string
		for _, k := range slices.Sorted(maps.Keys(rows)) {
			lines = append(lines, fmt.Sprintf("  %q: %s", k, rows[k]))
		}
		if err := os.WriteFile(goldenStatsPath, []byte("{\n"+strings.Join(lines, ",\n")+"\n}\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// checkGolden holds one run's report and error to the table's row key. Runs
// that share a key — the same program fused and unfused, or at another lane
// count — must all produce the row.
func checkGolden(t testing.TB, key string, s *Stats, runErr error) {
	t.Helper()
	row := goldenRow{}
	if runErr != nil {
		row.Err = runErr.Error()
	}
	if s != nil {
		one := *s
		one.Lanes = 1
		row.Stats = &one
	}
	checkGoldenRow(t, key, row)
}

func checkGoldenRow(t testing.TB, key string, row goldenRow) {
	t.Helper()
	if golden.err != nil {
		t.Fatal(golden.err)
	}
	got, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	switch want, ok := golden.want[key]; {
	case *updateGolden:
		if prev, ok := golden.got[key]; ok && !bytes.Equal(prev, got) {
			t.Errorf("%s: two runs disagree:\n%s\n%s", key, prev, got)
		}
		golden.got[key] = got
	case !ok:
		t.Errorf("%s has no row in %s; run with -update", key, goldenStatsPath)
	case !bytes.Equal(want, got):
		t.Errorf("%s: run moved off %s:\nwant %s\ngot  %s", key, goldenStatsPath, want, got)
	}
}

// digest is the hex SHA-256 of v's printed form.
func digest(v any) string {
	h := sha256.Sum256(fmt.Appendf(nil, "%v", v))
	return hex.EncodeToString(h[:])
}

// refMaxSteps bounds a reference run; no test program comes near it.
const refMaxSteps = 1 << 22

// matchRef runs progs on the reference from lane l's global memory as it was
// staged (global: its first bytes, or all of it) and holds the simulated
// chip's outcome to it: runErr, the error Run returned, must be the fault of a
// core at the pc the reference stopped it at, or the deadlock of exactly the
// cores it left blocked, or nil with every core halted and every FIFO
// drained; and then every register and every byte of every memory must
// agree, core by core, in lane l of ch.
func matchRef(t testing.TB, ch *Chip, l int, runErr error, progs []Program, global []byte) {
	t.Helper()
	r := newRefChip(ch.cfg, progs, slices.Clone(global))
	for _, s := range ch.gpage {
		r.readOnly = append(r.readOnly, s < 0) // a shared page of the mapping
	}
	if !r.run(refMaxSteps) {
		t.Fatalf("lane %d: the reference did not finish in %d steps", l, refMaxSteps)
	}
	var faults, stuck []string // "core %d pc %d ", how the simulator's error for the core starts
	var errs []error
	for id, c := range r.cores {
		if at := fmt.Sprintf("core %d pc %d ", id, c.pc); c.fault != nil {
			faults, errs = append(faults, at), append(errs, c.fault)
		} else if c.live() {
			stuck = append(stuck, at)
		}
	}
	msg := fmt.Sprint(runErr)
	switch {
	case strings.Contains(msg, "deadlock"):
		if len(faults) > 0 || !strings.Contains(msg, fmt.Sprintf(" %d of", len(stuck))) ||
			slices.ContainsFunc(stuck, func(s string) bool { return !strings.Contains(msg, s) }) {
			t.Errorf("lane %d: Run = %v; the reference faulted at %q, stuck at %q", l, runErr, faults, stuck)
		}
		return
	case runErr != nil:
		if !slices.ContainsFunc(faults, func(f string) bool { return strings.HasPrefix(msg, f) }) {
			t.Errorf("lane %d: Run = %v; the reference faulted at %q, stuck at %q", l, runErr, faults, stuck)
		}
		return
	case len(faults)+len(stuck) > 0:
		t.Fatalf("lane %d: Run halted; the reference faulted at %q %v, stuck at %q", l, faults, errs, stuck)
	}
	for k, q := range r.fifos {
		if len(q) > 0 {
			t.Errorf("lane %d: %d messages %+v never received", l, len(q), k)
		}
	}
	for id, c := range r.cores {
		sc, im := ch.cores[id], &ch.cores[id].images[l]
		if sc.pc != c.pc || sc.regs != c.regs || sc.sregs != c.sregs {
			t.Errorf("lane %d core %d: pc %d registers %v %v, the reference's pc %d %v %v",
				l, id, sc.pc, sc.regs, sc.sregs, c.pc, c.regs, c.sregs)
		}
		local := localReads(sc, l)
		if i := diffAt(local, c.local); i >= 0 {
			t.Errorf("lane %d core %d: local[%d] = %#x, the reference's %#x", l, id, i, local[i], c.local[i])
		}
		for g := range c.mg {
			w := readsAs(im.mg[g], len(c.mg[g]))
			if i := diffAt(w, c.mg[g]); i >= 0 {
				t.Errorf("lane %d core %d: macro group %d byte %d = %#x, the reference's %#x", l, id, g, i, w[i], c.mg[g][i])
			}
		}
		if !slices.Equal(im.cimAcc, c.acc) {
			t.Errorf("lane %d core %d: accumulator %v, the reference's %v", l, id, im.cimAcc, c.acc)
		}
	}
	g := globalReads(ch, l, len(r.global))
	if i := diffAt(g, r.global); i >= 0 {
		t.Errorf("lane %d: global[%d] = %#x, the reference's %#x", l, i, g[i], r.global[i])
	}
}

// readsAs returns the first n bytes a memory backed by b reads as: b's own
// bytes, then zeros past its end (an undeclared macro group).
func readsAs(b []byte, n int) []byte {
	if len(b) >= n {
		return b[:n]
	}
	return append(slices.Clone(b), make([]byte, n-len(b))...)
}

// globalReads returns the first n bytes lane l's global memory of ch reads
// as: its own bytes, then zeros past its size.
func globalReads(ch *Chip, l, n int) []byte {
	out := make([]byte, n)
	ch.readGlobal(out[:min(n, ch.gsize)], l, 0)
	return out
}

// arenaNonzero returns the lane and offset of the first nonzero byte at or
// past offset from in a lane's global-memory arena, up to its capacity, or
// -1, -1: what no page holds must read as zeros.
func arenaNonzero(ch *Chip, from int) (int, int) {
	for l, a := range ch.garena {
		if i := firstNonzero(a[min(from, cap(a)):cap(a)]); i >= 0 {
			return l, from + i
		}
	}
	return -1, -1
}

// localReads returns what lane l's local memory of c reads as, the whole
// logical size of it: the backed parts, and zeros in the hole between them.
func localReads(c *core, l int) []byte {
	out := make([]byte, c.localSize)
	c.readLocal(out, l, 0)
	return out
}

// diffAt returns the first index at which equal-length a and b differ, or -1.
func diffAt(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
