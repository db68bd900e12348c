package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names with their direction and regression bound; the test keeps the
// two in step.
type metricDef struct {
	name  string
	unit  string
	exact bool // a simulated-time count: repeats bit for bit
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off, each defined on every workload and never zero. Time and memory are
// given per unit of work (see sample.work), because the amount of work moves
// with the seed — quickSort at n=512 takes 320 k to 390 k cycles depending
// on its input — while its host cost per unit does not.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "work_per_s", unit: "1/s"},
	{name: "alloc_b_per_work", unit: "B"},
}

// perLayer are the metrics of single layers, from the traced run. A layer a
// workload does not enter reports 0 there — which is the prediction for any
// optimisation of that layer.
var perLayer = []metricDef{
	// What the untraced repetition of the traced invocation showed its user;
	// these are defined on some workloads only, or repeat exactly, or are
	// zero when all is well, so they cannot carry a bound of their own.
	{name: "e2e.wall_s", unit: "s"},
	{name: "e2e.points_per_s", unit: "1/s"},
	{name: "e2e.host_ns_per_cycle", unit: "ns/cycle"},
	{name: "e2e.req_p50_ms", unit: "ms"},
	{name: "e2e.req_p95_ms", unit: "ms"},
	{name: "e2e.ttfb_p50_ms", unit: "ms"},
	{name: "e2e.alloc_mb", unit: "MB"},
	{name: "e2e.peak_rss_mb", unit: "MB"},
	{name: "e2e.failed_share", unit: "1"},
	{name: "e2e.sim_ipc", unit: "inst/cycle", exact: true},
	{name: "e2e.fetch_err_pct", unit: "%", exact: true},
	{name: "e2e.retire_err_pct", unit: "%", exact: true},

	{name: "trace_overhead_pct", unit: "%"},
	{name: "self_ms.minic", unit: "ms"},
	{name: "self_ms.gofront", unit: "ms"},
	{name: "self_ms.pbbs", unit: "ms"},
	{name: "self_ms.progs", unit: "ms"},
	{name: "self_ms.emu", unit: "ms"},
	{name: "self_ms.trace", unit: "ms"},
	{name: "self_ms.ilp", unit: "ms"},
	{name: "self_ms.machine", unit: "ms"},
	{name: "self_ms.backend", unit: "ms"},
	{name: "self_ms.sweep", unit: "ms"},
	{name: "self_ms.server", unit: "ms"},
	{name: "self_ms.fabric", unit: "ms"},
	{name: "self_ms.bench", unit: "ms"},
	{name: "share_pct.machine", unit: "%"},

	{name: "minic.compile_fork_us_per_kernel", unit: "us"},
	{name: "minic.compile_call_us_per_kernel", unit: "us"},
	{name: "minic.parse_us_per_kernel", unit: "us"},
	{name: "minic.insts_emitted", unit: "count", exact: true},
	{name: "gofront.lower_us_per_kernel", unit: "us"},
	{name: "gofront.interp_ns_per_inst", unit: "ns/inst"},
	{name: "pbbs.gen_us_per_point", unit: "us"},
	{name: "pbbs.ref_us_per_point", unit: "us"},
	{name: "emu.ns_per_inst", unit: "ns/inst"},
	{name: "emu.traced_ns_per_inst", unit: "ns/inst"},
	{name: "emu.trace_alloc_bytes_per_inst", unit: "B/inst"},
	{name: "trace.stats_ns_per_inst", unit: "ns/inst"},
	{name: "trace.encode_ns_per_inst", unit: "ns/inst"},
	{name: "ilp.analyze_seq_ns_per_inst", unit: "ns/inst"},
	{name: "ilp.analyze_par_ns_per_inst", unit: "ns/inst"},
	{name: "ilp.alloc_bytes_per_inst", unit: "B/inst"},
	{name: "machine.new_us_c1", unit: "us"},
	{name: "machine.new_us_c16", unit: "us"},
	{name: "machine.new_us_c64", unit: "us"},
	{name: "machine.new_us_c3072", unit: "us"},
	{name: "machine.run_ns_per_cycle", unit: "ns/cycle"},
	{name: "machine.run_ns_per_inst", unit: "ns/inst"},
	{name: "machine.reset_run_ns_per_cycle", unit: "ns/cycle"},
	{name: "machine.pool_hits", unit: "count"},
	{name: "machine.pool_misses", unit: "count"},
	{name: "machine.allocs_per_run", unit: "count"},
	{name: "machine.cycles", unit: "count", exact: true},
	{name: "machine.instructions", unit: "count", exact: true},
	{name: "machine.sections", unit: "count", exact: true},
	{name: "machine.reg_requests", unit: "count", exact: true},
	{name: "machine.mem_requests", unit: "count", exact: true},
	{name: "noc.messages", unit: "count", exact: true},
	{name: "noc.request_hops", unit: "count", exact: true},
	{name: "noc.queue_ns_per_msg", unit: "ns"},
	{name: "backend.inject_us_per_point", unit: "us"},
	{name: "backend.crossvalidate_ms", unit: "ms"},
	{name: "sweep.measure_cold_ms_per_point", unit: "ms"},
	{name: "sweep.measure_warm_us_per_point", unit: "us"},
	{name: "sweep.machine_share", unit: "1"},
	{name: "sweep.cache_put_us", unit: "us"},
	{name: "sweep.cache_get_us", unit: "us"},
	{name: "sweep.jsonl_write_us_per_record", unit: "us"},
	{name: "sweep.key_residual_us_per_point", unit: "us"},
	{name: "sweep.hits", unit: "count"},
	{name: "sweep.simulated", unit: "count"},
	{name: "sweep.coalesced", unit: "count"},
	{name: "sweep.failures", unit: "count"},
	{name: "server.submit_ms_p50", unit: "ms"},
	{name: "server.overhead_ms_per_req", unit: "ms"},
	{name: "server.jobs_done", unit: "count"},
	{name: "server.http_non2xx", unit: "count"},
	{name: "fabric.overhead_ratio", unit: "1"},
	{name: "fabric.rpcs_per_point", unit: "1"},
	{name: "fabric.leases_granted", unit: "count"},
	{name: "fabric.leases_expired", unit: "count"},
	{name: "fabric.duplicates", unit: "count"},
	{name: "fabric.local_drained", unit: "count"},
	{name: "fabric.first_lease_ms", unit: "ms"},
}

// layerMetrics holds one traced run's per-layer values, every name present.
type layerMetrics map[string]float64

func newLayerMetrics() layerMetrics {
	lm := make(layerMetrics, len(perLayer))
	for _, d := range perLayer {
		lm[d.name] = 0
	}
	return lm
}

// set stores a value under a declared name; an undeclared name is a bug in
// the benchmark, not in its input.
func (lm layerMetrics) set(name string, v float64) {
	if _, ok := lm[name]; !ok {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	lm[name] = v
}

// endToEndSamples turns a run's repetitions into one sample list per
// end-to-end metric.
func endToEndSamples(res runResult) map[string][]float64 {
	out := make(map[string][]float64, len(endToEnd))
	for _, d := range res.setups {
		out["setup_s"] = append(out["setup_s"], d.Seconds())
	}
	for _, s := range res.samples {
		if s.work == 0 {
			continue // a failed repetition: counted in failed, no rate to report
		}
		out["work_per_s"] = append(out["work_per_s"], float64(s.work)/s.wall.Seconds())
		out["alloc_b_per_work"] = append(out["alloc_b_per_work"], float64(s.alloc)/float64(s.work))
	}
	return out
}

// peakRSS reads the process's resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status (%s)", runtime.GOOS)
}
