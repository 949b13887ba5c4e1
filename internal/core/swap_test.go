package core

import (
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
)

// TestMultiPassConvFunctional squeezes the CIM geometry so ordinary
// convolutions exceed core residency and must weight-swap, then demands
// bit-exact outputs.
func TestMultiPassConvFunctional(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Unit.MacroRows = 64
	cfg.Core.NumMacroGroups = 2
	cfg.Core.MacrosPerGroup = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tinycnn", "tinyresnet"} {
		c := zooCase{name, compiler.StrategyGeneric, cfg}
		assertValidates(t, c.String(), c.compiled(t), 9)
	}
}
