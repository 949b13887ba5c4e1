package arch

import "fmt"

// EnergyParams holds per-event energy costs in picojoules. The defaults are
// derived from published 28 nm digital CIM figures: the ISSCC'22 macro cited
// by the paper reports 27.38 TOPS/W signed-INT8, i.e. ~36.5 fJ/op or
// ~73 fJ/MAC; SRAM and NoC figures follow typical 28 nm memory-compiler and
// Noxim-class router numbers. Absolute joules are a substitution for the
// authors' post-layout flow; component ratios are preserved.
type EnergyParams struct {
	// CIMMACpJ is the energy of one INT8 multiply-accumulate inside a macro.
	CIMMACpJ float64 `json:"cim_mac_pj"`
	// CIMLoadPJPerByte is the energy of writing one weight byte into a macro.
	CIMLoadPJPerByte float64 `json:"cim_load_pj_per_byte"`
	// LocalMemPJPerByte is the local SRAM access energy per byte.
	LocalMemPJPerByte float64 `json:"local_mem_pj_per_byte"`
	// GlobalMemPJPerByte is the global memory access energy per byte.
	GlobalMemPJPerByte float64 `json:"global_mem_pj_per_byte"`
	// NoCHopPJPerByte is the NoC energy per byte per hop (router + link).
	NoCHopPJPerByte float64 `json:"noc_hop_pj_per_byte"`
	// VectorOpPJ is the energy per INT8 lane-operation in the vector unit.
	VectorOpPJ float64 `json:"vector_op_pj"`
	// ScalarOpPJ is the energy per scalar ALU operation.
	ScalarOpPJ float64 `json:"scalar_op_pj"`
	// InstFetchPJ is the fetch+decode energy per instruction.
	InstFetchPJ float64 `json:"inst_fetch_pj"`
	// RegFilePJ is the register-file access energy per instruction.
	RegFilePJ float64 `json:"reg_file_pj"`
	// CoreLeakagePJPerCycle is the static energy per core per cycle.
	CoreLeakagePJPerCycle float64 `json:"core_leakage_pj_per_cycle"`
}

// DefaultEnergyParams returns the 28 nm technology table described above.
func DefaultEnergyParams() EnergyParams {
	return EnergyParams{
		CIMMACpJ:              0.073,
		CIMLoadPJPerByte:      1.2,
		LocalMemPJPerByte:     0.21,
		GlobalMemPJPerByte:    3.6,
		NoCHopPJPerByte:       1.2,
		VectorOpPJ:            0.12,
		ScalarOpPJ:            0.35,
		InstFetchPJ:           1.1,
		RegFilePJ:             0.25,
		CoreLeakagePJPerCycle: 2.5,
	}
}

// Validate checks that every energy parameter is non-negative.
func (e *EnergyParams) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"cim_mac_pj", e.CIMMACpJ},
		{"cim_load_pj_per_byte", e.CIMLoadPJPerByte},
		{"local_mem_pj_per_byte", e.LocalMemPJPerByte},
		{"global_mem_pj_per_byte", e.GlobalMemPJPerByte},
		{"noc_hop_pj_per_byte", e.NoCHopPJPerByte},
		{"vector_op_pj", e.VectorOpPJ},
		{"scalar_op_pj", e.ScalarOpPJ},
		{"inst_fetch_pj", e.InstFetchPJ},
		{"reg_file_pj", e.RegFilePJ},
		{"core_leakage_pj_per_cycle", e.CoreLeakagePJPerCycle},
	} {
		if p.v < 0 {
			return fmt.Errorf("arch: energy parameter %s = %g must be non-negative", p.name, p.v)
		}
	}
	return nil
}
