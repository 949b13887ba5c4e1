package sim

import (
	"fmt"
	"math"
	"strings"
)

// EnergyBreakdown accumulates picojoules by architectural component,
// matching the Fig. 6 reporting buckets: local memory, compute units
// (CIM + vector + scalar + instruction front-end + leakage) and NoC
// (links, routers and global memory access).
type EnergyBreakdown struct {
	CIMComputePJ float64 // in-macro MAC and accumulation energy
	CIMLoadPJ    float64 // weight write energy into macros
	VectorPJ     float64 // vector unit lane operations
	ScalarPJ     float64 // scalar ALU operations
	FrontendPJ   float64 // instruction fetch/decode and register file
	LeakagePJ    float64 // static energy over active cycles
	LocalMemPJ   float64 // local SRAM traffic
	NoCPJ        float64 // NoC links/routers plus global memory
}

// ComputePJ returns the compute-unit bucket.
func (e *EnergyBreakdown) ComputePJ() float64 {
	return e.CIMComputePJ + e.CIMLoadPJ + e.VectorPJ + e.ScalarPJ + e.FrontendPJ + e.LeakagePJ
}

// TotalPJ returns all consumed energy.
func (e *EnergyBreakdown) TotalPJ() float64 {
	return e.ComputePJ() + e.LocalMemPJ + e.NoCPJ
}

// add merges another breakdown.
func (e *EnergyBreakdown) add(o *EnergyBreakdown) {
	e.CIMComputePJ += o.CIMComputePJ
	e.CIMLoadPJ += o.CIMLoadPJ
	e.VectorPJ += o.VectorPJ
	e.ScalarPJ += o.ScalarPJ
	e.FrontendPJ += o.FrontendPJ
	e.LeakagePJ += o.LeakagePJ
	e.LocalMemPJ += o.LocalMemPJ
	e.NoCPJ += o.NoCPJ
}

// CoreStats reports one core's activity.
type CoreStats struct {
	CoreID       int
	Instructions int64
	MACs         int64
	HaltCycle    int64
	UnitBusy     [5]int64 // indexed by isa.Unit
	StallCycles  int64
	Energy       EnergyBreakdown
}

// Stats is the whole-chip simulation report. Lanes is the run's occupancy
// and DivergedLanes counts the lanes that diverged (lanes.go); cycle, energy
// and traffic numbers are the shared timing plane, identical for every lane
// that did not.
type Stats struct {
	Cycles        int64
	Instructions  int64
	MACs          int64
	Energy        EnergyBreakdown
	Cores         []CoreStats
	NoCBytes      int64
	NoCByteHops   int64
	GlobalBytes   int64
	Lanes         int
	DivergedLanes int
}

// Check reports the first violated conservation law of a report: the chip's
// MAC and instruction counts are the sums over its cores, no unit is busy and
// no core halts beyond the last cycle, every per-core energy component sums
// to the chip's (NoC energy is metered by the mesh, not per core), and the
// three reporting buckets add up to the total. The equivalence suites call it
// on every report they compare.
func (s *Stats) Check() error {
	var macs, instrs int64
	var energy EnergyBreakdown
	for i := range s.Cores {
		c := &s.Cores[i]
		macs += c.MACs
		instrs += c.Instructions
		energy.add(&c.Energy)
		if c.HaltCycle > s.Cycles {
			return fmt.Errorf("core %d halts at cycle %d of %d", c.CoreID, c.HaltCycle, s.Cycles)
		}
		for u, busy := range c.UnitBusy {
			if busy > s.Cycles {
				return fmt.Errorf("core %d unit %d busy %d cycles of %d", c.CoreID, u, busy, s.Cycles)
			}
		}
	}
	if macs != s.MACs {
		return fmt.Errorf("cores sum to %d MACs, chip reports %d", macs, s.MACs)
	}
	if instrs != s.Instructions {
		return fmt.Errorf("cores sum to %d instructions, chip reports %d", instrs, s.Instructions)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for _, f := range []struct {
		name       string
		cores, all float64
	}{
		{"CIM compute", energy.CIMComputePJ, s.Energy.CIMComputePJ},
		{"CIM load", energy.CIMLoadPJ, s.Energy.CIMLoadPJ},
		{"vector", energy.VectorPJ, s.Energy.VectorPJ},
		{"scalar", energy.ScalarPJ, s.Energy.ScalarPJ},
		{"frontend", energy.FrontendPJ, s.Energy.FrontendPJ},
		{"leakage", energy.LeakagePJ, s.Energy.LeakagePJ},
		{"local memory", energy.LocalMemPJ, s.Energy.LocalMemPJ},
	} {
		if !near(f.cores, f.all) {
			return fmt.Errorf("%s energy: cores sum to %g pJ, chip reports %g", f.name, f.cores, f.all)
		}
	}
	if e := &s.Energy; !near(e.ComputePJ()+e.LocalMemPJ+e.NoCPJ, e.TotalPJ()) {
		return fmt.Errorf("energy buckets %g + %g + %g do not add up to the total %g",
			e.ComputePJ(), e.LocalMemPJ, e.NoCPJ, e.TotalPJ())
	}
	return nil
}

// Utilization returns the average busy fraction of a unit across cores.
func (s *Stats) Utilization(unit int) float64 {
	if s.Cycles == 0 || len(s.Cores) == 0 {
		return 0
	}
	var busy int64
	for i := range s.Cores {
		busy += s.Cores[i].UnitBusy[unit]
	}
	return float64(busy) / float64(s.Cycles*int64(len(s.Cores)))
}

// Seconds converts the cycle count to wall time at the given clock.
func (s *Stats) Seconds(clockGHz float64) float64 {
	return float64(s.Cycles) / (clockGHz * 1e9)
}

// TOPS returns achieved tera-ops/s (1 MAC = 2 ops) at the given clock.
func (s *Stats) TOPS(clockGHz float64) float64 {
	secs := s.Seconds(clockGHz)
	if secs == 0 {
		return 0
	}
	return 2 * float64(s.MACs) / secs / 1e12
}

// EnergyMJ returns total energy in millijoules.
func (s *Stats) EnergyMJ() float64 { return s.Energy.TotalPJ() / 1e9 }

// String renders a human-readable summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles: %d\n", s.Cycles)
	fmt.Fprintf(&b, "instructions: %d\n", s.Instructions)
	fmt.Fprintf(&b, "macs: %d\n", s.MACs)
	fmt.Fprintf(&b, "energy: %.4f mJ (compute %.4f, local mem %.4f, noc %.4f)\n",
		s.Energy.TotalPJ()/1e9, s.Energy.ComputePJ()/1e9, s.Energy.LocalMemPJ/1e9, s.Energy.NoCPJ/1e9)
	fmt.Fprintf(&b, "noc: %d bytes, %d byte-hops, global %d bytes\n", s.NoCBytes, s.NoCByteHops, s.GlobalBytes)
	return b.String()
}
