// Command cimflow is the CIMFlow command-line interface: compile DNN
// models for digital CIM architectures, simulate them cycle-accurately,
// validate functional correctness, and inspect the ISA.
//
// Usage:
//
//	cimflow models
//	cimflow isa
//	cimflow compile  -model resnet18 [-arch cfg.json] [-strategy dp] [-dump-core 0]
//	cimflow run      -model resnet18 [-arch cfg.json] [-strategy dp] [-seed 1]
//	cimflow validate -model tinycnn  [-arch cfg.json] [-strategy dp]
//	cimflow config   [-out arch.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"cimflow"
	"cimflow/internal/compiler"
	"cimflow/internal/isa"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "models":
		for _, n := range cimflow.ModelNames() {
			g := cimflow.Model(n)
			fmt.Printf("%-16s %3d nodes  %8.2f MB weights  %6.0f MMACs\n",
				n, len(g.Nodes), float64(g.TotalWeightBytes())/(1<<20), float64(g.TotalMACs())/1e6)
		}
	case "isa":
		fmt.Println("opcode  name      format  unit      operands")
		for _, d := range isa.All() {
			fmt.Printf("%6d  %-8s  %-6s  %-8s  %v\n", d.Op, d.Name, d.Format, d.Unit, d.Operands)
		}
	case "config":
		err = configCmd(args)
	case "compile":
		err = compileCmd(args)
	case "run":
		err = runCmd(args)
	case "validate":
		err = validateCmd(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cimflow:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cimflow <models|isa|config|compile|run|validate> [flags]`)
}

func commonFlags(fs *flag.FlagSet) (modelName, archPath, strategy *string, seed *uint64) {
	modelName = fs.String("model", "resnet18", "model name (see `cimflow models`)")
	archPath = fs.String("arch", "", "architecture JSON (default: Table I config)")
	strategy = fs.String("strategy", "dp", "compilation strategy: generic | duplication | dp")
	seed = fs.Uint64("seed", 1, "synthetic weight/input seed")
	return
}

func load(modelName, archPath, strategy string) (*cimflow.Graph, cimflow.Config, cimflow.Strategy, error) {
	g, err := cimflow.LookupModel(modelName)
	if err != nil {
		return nil, cimflow.Config{}, 0, err
	}
	cfg := cimflow.DefaultConfig()
	if archPath != "" {
		var err error
		cfg, err = cimflow.LoadConfig(archPath)
		if err != nil {
			return nil, cfg, 0, err
		}
	}
	s, err := compiler.ParseStrategy(strategy)
	return g, cfg, s, err
}

// newSession builds the Engine session shared by run and validate, with a
// context that lets Ctrl-C cancel the cycle-accurate simulation mid-run.
func newSession(g *cimflow.Graph, cfg cimflow.Config, s cimflow.Strategy, seed uint64) (*cimflow.Session, context.Context, context.CancelFunc, error) {
	engine, err := cimflow.NewEngine(cfg, cimflow.WithStrategy(s), cimflow.WithSeed(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	sess, err := engine.Session(g)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	return sess, ctx, stop, nil
}

func configCmd(args []string) error {
	fs := flag.NewFlagSet("config", flag.ExitOnError)
	out := fs.String("out", "", "write default config JSON to this path (default: stdout)")
	fs.Parse(args)
	cfg := cimflow.DefaultConfig()
	if *out != "" {
		return cfg.Save(*out)
	}
	fmt.Printf("%-24s %d cores, %d MB global, %d B flits\n", cfg.Name,
		cfg.NumCores(), cfg.Chip.GlobalMemBytes>>20, cfg.Chip.NoCFlitBytes)
	fmt.Printf("per core: %d MGs x %d macros (%dx%d), %d KB local, %.1f TOPS peak chip\n",
		cfg.Core.NumMacroGroups, cfg.Core.MacrosPerGroup, cfg.Unit.MacroRows,
		cfg.Unit.MacroCols, cfg.Core.LocalMemBytes>>10, cfg.PeakTOPS())
	return nil
}

func compileCmd(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	modelName, archPath, strategy, _ := commonFlags(fs)
	dumpCore := fs.Int("dump-core", -1, "disassemble this core's program")
	fs.Parse(args)
	g, cfg, s, err := load(*modelName, *archPath, *strategy)
	if err != nil {
		return err
	}
	compiled, err := cimflow.Compile(g, cfg, s)
	if err != nil {
		return err
	}
	var dump []isa.Instruction
	if *dumpCore != -1 {
		if dump, err = coreProgram(compiled, *dumpCore); err != nil {
			return err
		}
	}
	fmt.Printf("compiled %s for %s: %d instructions across %d cores, %d stages, %.1f MB global\n",
		g.Name, cfg.Name, compiled.InstructionCount(), len(compiled.Programs),
		len(compiled.Plan.Stages), float64(compiled.GlobalBytes())/(1<<20))
	fmt.Print(compiled.Plan.Summary())
	if *dumpCore != -1 {
		fmt.Printf("--- core %d program ---\n", *dumpCore)
		fmt.Print(isa.DisassembleProgram(dump))
	}
	return nil
}

// coreProgram returns the instructions compiled for a core. A program names
// its core in Program.Core; its position in the list is not the core id.
func coreProgram(c *cimflow.Compiled, core int) ([]isa.Instruction, error) {
	if len(c.Programs) == 0 {
		return nil, fmt.Errorf("-dump-core %d: the compiled model has no programs", core)
	}
	lo, hi := c.Programs[0].Core, c.Programs[0].Core
	for _, p := range c.Programs {
		if p.Core == core {
			return p.Code, nil
		}
		lo, hi = min(lo, p.Core), max(hi, p.Core)
	}
	return nil, fmt.Errorf("-dump-core %d: no program for that core (programs are for cores %d to %d)", core, lo, hi)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	modelName, archPath, strategy, seed := commonFlags(fs)
	fs.Parse(args)
	g, cfg, s, err := load(*modelName, *archPath, *strategy)
	if err != nil {
		return err
	}
	sess, ctx, stop, err := newSession(g, cfg, s, *seed)
	if err != nil {
		return err
	}
	defer stop()
	res, err := sess.Infer(ctx, sess.SeededInput(*seed+1))
	if err != nil {
		return err
	}
	fmt.Printf("model %s on %s (%v strategy):\n", g.Name, cfg.Name, s)
	fmt.Print(res.Stats)
	fmt.Printf("latency: %.3f ms   throughput: %.3f TOPS (%.1f inf/s)   energy: %.4f mJ\n",
		res.Seconds*1e3, res.TOPS, res.Throughput, res.EnergyMJ)
	for u, name := range []string{"scalar", "vector", "cim", "transfer"} {
		fmt.Printf("%-8s utilization: %5.1f%%\n", name, 100*res.Stats.Utilization(u))
	}
	return nil
}

func validateCmd(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	modelName, archPath, strategy, seed := commonFlags(fs)
	fs.Parse(args)
	g, cfg, s, err := load(*modelName, *archPath, *strategy)
	if err != nil {
		return err
	}
	sess, ctx, stop, err := newSession(g, cfg, s, *seed)
	if err != nil {
		return err
	}
	defer stop()
	mism, err := sess.Validate(ctx, sess.SeededInput(*seed+1))
	if err != nil {
		return err
	}
	if mism != 0 {
		return fmt.Errorf("%d output elements differ from the golden reference", mism)
	}
	fmt.Printf("%s: simulated output matches the golden reference bit-exactly\n", g.Name)
	return nil
}
