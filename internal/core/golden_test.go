package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_stats.json from the runs of TestInterpreterEquivalence that this invocation selects")

const goldenStatsPath = "testdata/golden_stats.json"

// goldenStats is what testdata/golden_stats.json pins of one program's
// report at the default architecture, on TestInterpreterEquivalence's weights
// and input. A change to the simulator's cycle or energy model shows up as a
// diff of that file, and the diff is the review.
type goldenStats struct {
	Cycles       int64 `json:"cycles"`
	Instructions int64 `json:"instructions"`
	MACs         int64 `json:"macs"`
	// Energy components in picojoules as hexadecimal floats: exact, and
	// still readable as magnitudes.
	Energy struct {
		CIMCompute string `json:"cim_compute"`
		CIMLoad    string `json:"cim_load"`
		Vector     string `json:"vector"`
		Scalar     string `json:"scalar"`
		Frontend   string `json:"frontend"`
		Leakage    string `json:"leakage"`
		LocalMem   string `json:"local_mem"`
		NoC        string `json:"noc"`
	} `json:"energy_pj"`
	NoCBytes    int64 `json:"noc_bytes"`
	NoCByteHops int64 `json:"noc_byte_hops"`
	GlobalBytes int64 `json:"global_bytes"`
	// CoresDigest is SHA-256 over every core's id, halt cycle and five
	// unit-busy counts, in core order.
	CoresDigest string `json:"cores_digest"`
}

func goldenOf(s *sim.Stats) goldenStats {
	hexf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	g := goldenStats{
		Cycles: s.Cycles, Instructions: s.Instructions, MACs: s.MACs,
		NoCBytes: s.NoCBytes, NoCByteHops: s.NoCByteHops, GlobalBytes: s.GlobalBytes,
	}
	e := &s.Energy
	g.Energy.CIMCompute, g.Energy.CIMLoad = hexf(e.CIMComputePJ), hexf(e.CIMLoadPJ)
	g.Energy.Vector, g.Energy.Scalar = hexf(e.VectorPJ), hexf(e.ScalarPJ)
	g.Energy.Frontend, g.Energy.Leakage = hexf(e.FrontendPJ), hexf(e.LeakagePJ)
	g.Energy.LocalMem, g.Energy.NoC = hexf(e.LocalMemPJ), hexf(e.NoCPJ)
	h := sha256.New()
	for i := range s.Cores {
		c := &s.Cores[i]
		binary.Write(h, binary.LittleEndian, int64(c.CoreID))
		binary.Write(h, binary.LittleEndian, c.HaltCycle)
		binary.Write(h, binary.LittleEndian, c.UnitBusy)
	}
	g.CoresDigest = hex.EncodeToString(h.Sum(nil))
	return g
}

func readGolden(t *testing.T) map[string]goldenStats {
	t.Helper()
	table := make(map[string]goldenStats)
	data, err := os.ReadFile(goldenStatsPath)
	if os.IsNotExist(err) && *updateGolden {
		return table
	}
	if err == nil {
		err = json.Unmarshal(data, &table)
	}
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run 'TestInterpreterEquivalence$' ./internal/core -update)", err)
	}
	return table
}

// goldenChecker holds a program's report to its row of the checked-in table
// or, under -update, collects the rows of the programs that ran and merges
// them into the file once the test and its parallel subtests are done.
type goldenChecker struct {
	want map[string]goldenStats
	mu   sync.Mutex
	got  map[string]goldenStats
}

func newGoldenChecker(t *testing.T) *goldenChecker {
	gc := &goldenChecker{want: readGolden(t), got: make(map[string]goldenStats)}
	if *updateGolden {
		t.Cleanup(func() {
			for key, row := range gc.got {
				gc.want[key] = row
			}
			data, err := json.MarshalIndent(gc.want, "", "  ")
			if err == nil {
				err = os.WriteFile(goldenStatsPath, append(data, '\n'), 0o644)
			}
			if err != nil {
				t.Errorf("writing %s: %v", goldenStatsPath, err)
			}
		})
	}
	return gc
}

func (gc *goldenChecker) check(t *testing.T, key string, s *sim.Stats) {
	t.Helper()
	got := goldenOf(s)
	if *updateGolden {
		gc.mu.Lock()
		gc.got[key] = got
		gc.mu.Unlock()
		return
	}
	want, ok := gc.want[key]
	if !ok {
		t.Errorf("%s has no row in %s; run with -update", key, goldenStatsPath)
	} else if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: report moved off %s:\nwant %+v\ngot  %+v", key, goldenStatsPath, want, got)
	}
}

// TestGoldenStatsTable: the checked-in table has a row for every zoo model
// under every strategy, and its two rows that bench/verify.go also pins
// (knownCycles) carry the same cycle counts.
func TestGoldenStatsTable(t *testing.T) {
	table := readGolden(t)
	for _, name := range model.ZooNames() {
		for _, strat := range []compiler.Strategy{
			compiler.StrategyGeneric, compiler.StrategyDuplication, compiler.StrategyDP,
		} {
			if _, ok := table[name+"/"+strat.String()]; !ok {
				t.Errorf("no row for %s/%s", name, strat)
			}
		}
	}
	if want := len(model.ZooNames()) * 3; len(table) != want {
		t.Errorf("%d rows, want %d", len(table), want)
	}
	for key, cycles := range map[string]int64{"resnet18/generic": 1772322, "mobilenetv2/generic": 3658686} {
		if got := table[key].Cycles; got != cycles {
			t.Errorf("%s: %d cycles, bench/verify.go pins %d", key, got, cycles)
		}
	}
}
