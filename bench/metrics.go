package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// values maps a metric name to its measured value.
type values map[string]float64

// e2eDef is one end-to-end metric as BENCHMARK.json declares it. Bound is
// the share of the parent's median by which it may worsen.
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef is one per-layer metric; per-layer metrics carry no bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// exact is the bound of simulated (host-independent) metrics: they repeat
// bit for bit, so any worsening beyond float formatting is a regression.
const exact = 1e-9

// endToEnd lists what a user of compile → simulate → serve sees. Every
// workload emits every one of them with tracing off. README.md defines
// each and records the measured spread its bound comes from.
var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_quiet", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"sim_minstr_per_s", "M/s", "higher", 0.25},
	{"sim_cycles", "cycles", "lower", exact},
	{"sim_energy_mj", "mJ", "lower", exact},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
}

// perLayer lists the traced run's metrics, prefixed by the package (layer)
// they measure. A layer that is not on a workload's path reports 0 there.
var perLayer = layerDefs(
	"model.graph_build_us us lower", "model.golden_exec_ms ms lower",

	"compiler.frontend_ms ms lower", "compiler.plan_ms ms lower", "compiler.codegen_ms ms lower",
	"compiler.estimate_us us lower", "compiler.static_init_ms ms lower",
	"compiler.input_segment_us us lower", "compiler.read_output_us us lower",
	"compiler.code_kinstr count lower", "compiler.global_mb MB lower",
	"compiler.kind_share.mvm ratio higher", "compiler.kind_share.vec ratio lower",
	"compiler.kind_share.scalar ratio lower", "compiler.kind_share.xfer ratio lower",

	"isa.predecode_ms ms lower", "isa.fuse_ms ms lower", "isa.fused_share ratio higher",

	"artifact.encode_ms ms lower", "artifact.decode_ms ms lower",
	"artifact.store_save_ms ms lower", "artifact.store_load_ms ms lower", "artifact.blob_kb KB lower",

	"sim.chip_build_ms ms lower", "sim.stage_weights_ms ms lower", "sim.reset_ms ms lower",
	"sim.zero_scratch_ms ms lower", "sim.init_input_us us lower", "sim.init_lane_us us lower",
	"sim.run_ms ms lower", "sim.read_us us lower", "sim.ns_per_instr ns lower", "sim.ns_per_mac ns lower",
	"sim.lanes_speedup.2 ratio higher", "sim.lanes_speedup.4 ratio higher", "sim.lanes_speedup.8 ratio higher",
	"sim.workers_speedup ratio higher", "sim.diverged_lanes count lower",
	"sim.instructions count lower", "sim.macs count lower", "sim.stall_cycles cycles lower",
	"sim.unit_busy_share.0 ratio higher", "sim.unit_busy_share.1 ratio higher", "sim.unit_busy_share.2 ratio higher",
	"sim.unit_busy_share.3 ratio higher", "sim.unit_busy_share.4 ratio higher",
	"sim.noc_bytes bytes lower", "sim.noc_byte_hops bytes lower", "sim.global_bytes bytes lower",
	"sim.energy_share.compute ratio higher", "sim.energy_share.localmem ratio lower", "sim.energy_share.noc ratio lower",

	"core.session_build_ms ms lower", "core.first_infer_ms ms lower", "core.infer_ms ms lower",
	"core.infer_residual_pct % lower", "core.lane_occupancy_mean count higher", "core.lane_fallbacks count lower",

	"dse.point_compile_ms_p50 ms lower", "dse.point_sim_ms_p50 ms lower", "dse.compile_share ratio lower",
	"dse.compile_calls count lower", "dse.cache_hits count higher", "dse.contexts count lower",
	"dse.parallel_efficiency ratio higher",

	"serve.overhead_ms ms lower", "serve.batch_mean count higher", "serve.accepted count higher",
	"serve.shed count lower", "serve.expired count lower", "serve.failed count lower",
	"serve.queue_depth_max count lower", "serve.slo_rate_rps 1/s higher", "serve.closed_rps 1/s higher",

	"cluster.hop_us us lower", "cluster.hedges count lower", "cluster.rejected_quota count lower",

	"host.op_ms_p50 ms lower", "host.op_ms_tail ms lower", "host.cpu_ms_per_op ms lower", "host.allocs_per_op count lower",
	"host.gc_cycles count lower", "host.gc_pause_ms ms lower", "host.peak_rss_mb MB lower",
	"host.round_spread_pct % lower", "host.loadgen_lag_ms_p99 ms lower",
	"host.trace_overhead_pct % lower",
)

func layerDefs(specs ...string) []layerDef {
	defs := make([]layerDef, len(specs))
	for i, s := range specs {
		if _, err := fmt.Sscanf(s, "%s %s %s", &defs[i].Name, &defs[i].Unit, &defs[i].Better); err != nil {
			panic("bench: bad metric spec " + s)
		}
	}
	return defs
}

// manifest is BENCHMARK.json; `-manifest` prints it from the tables above
// so the file cannot drift from what the program emits.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func theManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDoc{w.name, w.why})
	}
	return m
}

// metricVal is one reported number with its unit.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the last line of standard output.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// newReport attaches units to the run's values: with tracing off every
// end-to-end metric, with tracing on every per-layer metric. A metric the
// run did not produce is an error unless it is a per-layer metric of a
// layer off the workload's path, which reads 0.
func newReport(vals values, traced bool, attempted, failed int, violations []string) (*report, error) {
	r := &report{
		Correct:   failed == 0 && len(violations) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricVal),
	}
	names, units := declared(traced)
	for i, name := range names {
		v, ok := vals[name]
		if !ok && !traced {
			return nil, fmt.Errorf("bench: metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is %v", name, v)
		}
		r.Metrics[name] = metricVal{v, units[i]}
	}
	return r, nil
}

// declared lists, in table order, the names and units of the metrics a
// run reports: the per-layer ones when traced, else the end-to-end ones.
func declared(traced bool) (names, units []string) {
	if traced {
		for _, d := range perLayer {
			names, units = append(names, d.Name), append(units, d.Unit)
		}
		return names, units
	}
	for _, d := range endToEnd {
		names, units = append(names, d.Name), append(units, d.Unit)
	}
	return names, units
}

// print writes every metric by name with its unit, in table order, then the
// result line.
func (r *report) print(w io.Writer, traced bool) error {
	names, _ := declared(traced)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
