// Command perfbench is the repository's end-to-end benchmark. Each workload
// is a closed loop in one process: one call into the library's public
// functions is outstanding at a time. The loop repeats a fixed unit of work
// (a "pass") until the measurement time is spent and reports medians over
// passes. With -trace 1 it alternates untraced and traced passes: the
// untraced ones give host-time numbers, the traced ones record spans around
// the benchmark's own calls into each layer and give the per-layer budget.
//
//	perfbench --workload dse --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// README.md describes the workloads, the metrics and the output checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// defaultSeed is the seed whose output digests are recorded in
// digests.json.
const defaultSeed = 1

// metricDef describes one reported metric; BENCHMARK.json at the
// repository root lists the same names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of untraced runs. Every workload reports all of
// them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"call_p50_ms", "ms", "lower"},
	{"alloc_mib", "MiB", "lower"},
}

// perLayer are the metrics of traced runs. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.failed_frac", "ratio", "lower"},
	{"bench.passes", "count", "higher"},
	{"bench.calls", "count", "higher"},
	{"bench.call_p90_ms", "ms", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"ingest_minv_per_s", "Minv/s", "higher"},
	{"stem_err_pct", "%", "lower"},
	{"stem_err_max_pct", "%", "lower"},
	{"bound_miss_frac", "ratio", "lower"},
	{"stem_speedup_x", "x", "higher"},
	{"stream_gap_pct", "%", "lower"},
	{"trace.csv_s", "s", "lower"},
	{"trace.csv_rows", "count", "higher"},
	{"trace.fastcsv_s", "s", "lower"},
	{"workloads.reconstruct_s", "s", "lower"},
	{"workloads.kept_frac", "ratio", "lower"},
	{"hwmodel.profile_s", "s", "lower"},
	{"core.sample_s", "s", "lower"},
	{"core.cluster_s", "s", "lower"},
	{"core.kkt_s", "s", "lower"},
	{"core.clusters", "count", "lower"},
	{"core.samples", "count", "lower"},
	{"core.add_s", "s", "lower"},
	{"core.replans", "count", "lower"},
	{"core.replan_s", "s", "lower"},
	{"sampling.pka_s", "s", "lower"},
	{"sampling.sieve_s", "s", "lower"},
	{"sampling.photon_s", "s", "lower"},
	{"sampling.stem_s", "s", "lower"},
	{"kernelgen.spec_s", "s", "lower"},
	{"kernelgen.stream_s", "s", "lower"},
	{"kernelgen.warp_instrs", "count", "higher"},
	{"gpu.segment_s", "s", "lower"},
	{"gpu.segments", "count", "lower"},
	{"gpu.kernels", "count", "lower"},
	{"gpu.kernel_s", "s", "lower"},
	{"gpu.warp_instrs", "count", "higher"},
	{"gpu.ns_per_warp_instr", "ns", "lower"},
	{"gpu.l1_hit_rate", "ratio", "higher"},
	{"gpu.l2_hit_rate", "ratio", "higher"},
	{"gpu.sim_cycles", "cycles", "lower"},
	{"simcache.hits", "count", "higher"},
	{"simcache.misses", "count", "lower"},
	{"simcache.hit_ratio", "ratio", "higher"},
	{"simcache.lookup_s", "s", "lower"},
	{"simcache.mib", "MiB", "lower"},
	{"parallel.cpu_util", "ratio", "higher"},
	{"pipeline.fullsim_s", "s", "lower"},
	{"pipeline.run_s", "s", "lower"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale is "full" (the measured size) or "tiny" (the self-test size).
	scale string
	// spans is the file the traced passes' spans are written to; empty
	// disables writing (the self-test).
	spans string
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = add traced passes and report per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "input size: full or tiny")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	if o.trace {
		o.spans = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.jsonl", o.workload, o.seed)
	}

	res, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
