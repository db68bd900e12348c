package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func quickConfig(t *testing.T) *config {
	return &config{seed: 1, nproc: runtime.NumCPU(), workdir: t.TempDir(), sz: quickSizing()}
}

func loadTestContract(t *testing.T) *contractFile {
	t.Helper()
	cf, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// nonZeroWhenTraced lists, per workload, per-layer metrics the traced run
// must have measured: the layers the README says that workload enters.
var nonZeroWhenTraced = map[string][]string{
	"sweep_cold": {
		"e2e.wall_s", "e2e.points_per_s", "e2e.host_ns_per_cycle", "e2e.sim_ipc", "e2e.alloc_mb",
		"self_ms.machine", "self_ms.minic", "self_ms.sweep", "share_pct.machine",
		"minic.compile_fork_us_per_kernel", "minic.parse_us_per_kernel", "minic.insts_emitted",
		"gofront.lower_us_per_kernel", "gofront.interp_ns_per_inst", "pbbs.gen_us_per_point", "pbbs.ref_us_per_point",
		"emu.ns_per_inst", "machine.new_us_c1", "machine.new_us_c16", "machine.new_us_c64",
		"machine.run_ns_per_cycle", "machine.run_ns_per_inst", "machine.reset_run_ns_per_cycle", "machine.pool_misses",
		"machine.cycles", "machine.instructions", "machine.sections", "machine.mem_requests",
		"noc.messages", "noc.request_hops", "noc.queue_ns_per_msg",
		"backend.inject_us_per_point", "backend.crossvalidate_ms",
		"sweep.measure_cold_ms_per_point", "sweep.measure_warm_us_per_point", "sweep.machine_share",
		"sweep.cache_put_us", "sweep.cache_get_us", "sweep.jsonl_write_us_per_record", "sweep.simulated",
	},
	"machine_bign": {
		"e2e.wall_s", "e2e.host_ns_per_cycle", "e2e.sim_ipc", "self_ms.machine", "share_pct.machine",
		"machine.new_us_c64", "machine.run_ns_per_cycle", "machine.run_ns_per_inst",
		"machine.reset_run_ns_per_cycle", "machine.allocs_per_run", "machine.cycles", "machine.instructions",
		"sweep.simulated",
	},
	"sum_paper": {
		"e2e.wall_s", "e2e.host_ns_per_cycle", "e2e.sim_ipc", "e2e.fetch_err_pct", "e2e.retire_err_pct",
		"self_ms.machine", "self_ms.progs", "machine.run_ns_per_cycle", "machine.reset_run_ns_per_cycle",
		"machine.allocs_per_run", "machine.cycles", "noc.messages",
	},
	"ilp_fig7": {
		"e2e.wall_s", "e2e.points_per_s", "self_ms.emu", "self_ms.ilp", "self_ms.minic",
		"minic.compile_call_us_per_kernel", "minic.parse_us_per_kernel", "minic.insts_emitted",
		"gofront.lower_us_per_kernel", "emu.ns_per_inst", "emu.traced_ns_per_inst", "emu.trace_alloc_bytes_per_inst",
		"trace.stats_ns_per_inst", "trace.encode_ns_per_inst",
		"ilp.analyze_seq_ns_per_inst", "ilp.analyze_par_ns_per_inst", "ilp.alloc_bytes_per_inst",
	},
	"serve_warm": {
		"e2e.wall_s", "e2e.points_per_s", "e2e.req_p50_ms", "e2e.ttfb_p50_ms",
		"self_ms.server", "self_ms.sweep", "self_ms.minic",
		"minic.compile_fork_us_per_kernel", "pbbs.gen_us_per_point",
		"sweep.measure_warm_us_per_point", "sweep.cache_get_us", "sweep.hits",
		"server.submit_ms_p50", "server.jobs_done",
	},
	"fabric_cold": {
		"e2e.wall_s", "e2e.points_per_s", "e2e.sim_ipc", "self_ms.fabric", "self_ms.machine", "self_ms.sweep",
		"machine.cycles", "sweep.simulated", "fabric.overhead_ratio", "fabric.rpcs_per_point",
		"fabric.leases_granted", "fabric.first_lease_ms",
	},
}

// zeroWhenTraced lists layers a workload must not enter: the workload that
// bypasses an optimisation of that layer.
var zeroWhenTraced = map[string][]string{
	"ilp_fig7":   {"self_ms.machine", "share_pct.machine", "self_ms.sweep", "self_ms.server", "self_ms.fabric"},
	"serve_warm": {"self_ms.machine", "share_pct.machine", "sweep.simulated", "self_ms.emu", "self_ms.ilp"},
	"sweep_cold": {"self_ms.emu", "self_ms.ilp", "self_ms.server", "self_ms.fabric", "sweep.hits"},
	"sum_paper":  {"self_ms.minic", "self_ms.sweep", "self_ms.emu"},
}

func TestQuickRunProducesEveryMetric(t *testing.T) {
	cf := loadTestContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _, err := measure(w, quickConfig(t), false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(cf.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json lists %d end-to-end", len(res.Metrics), len(cf.EndToEnd))
			}
			for _, m := range cf.EndToEnd {
				s, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s missing", m.Name)
				case s.Unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, s.Unit, m.Unit)
				case !(s.Median > 0) || math.IsInf(s.Median, 0):
					t.Errorf("%s = %v: an end-to-end metric is never 0", m.Name, s.Median)
				}
			}

			res, spans, err := measure(w, quickConfig(t), true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(spans) == 0 {
				t.Error("traced run recorded no span")
			}
			if len(res.Metrics) != len(cf.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d per-layer", len(res.Metrics), len(cf.PerLayer))
			}
			for _, m := range cf.PerLayer {
				s, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("per-layer metric %s missing", m.Name)
				case s.Unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, s.Unit, m.Unit)
				case math.IsNaN(s.Median) || math.IsInf(s.Median, 0):
					t.Errorf("%s = %v", m.Name, s.Median)
				}
			}
			for _, name := range nonZeroWhenTraced[w.name] {
				if res.Metrics[name].Median == 0 {
					t.Errorf("%s is listed for %s but read 0", name, w.name)
				}
			}
			for _, name := range zeroWhenTraced[w.name] {
				if v := res.Metrics[name].Median; v != 0 {
					t.Errorf("%s = %v on %s, which must not enter that layer", name, v, w.name)
				}
			}
		})
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the benchmark's own
// tables in step, and within the limits a contract file has to meet.
func TestContractMatchesCode(t *testing.T) {
	cf := loadTestContract(t)
	if len(cf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(cf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, cf.Workloads[i].Name, w.name)
		}
		if cf.Workloads[i].Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why differs from BENCHMARK.json's, or is not one line of at most 200 characters", w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, listed []contractMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if !metricName.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: name is malformed or used twice", d.name)
			}
			seen[d.name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", d.name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.name, m.Bound)
			}
		}
	}
	check("end_to_end", cf.EndToEnd, endToEnd, true)
	check("per_layer", cf.PerLayer, perLayer, false)
	if cf.EndToEnd[0].Name != "setup_s" || cf.EndToEnd[0].Unit != "s" || cf.EndToEnd[0].Better != "lower" {
		t.Error("the contract needs setup_s in s, lower is better")
	}
	if len(cf.PerLayer) > 128 || len(cf.EndToEnd) > 16 {
		t.Error("too many metrics for a contract file")
	}
}

// TestResultLine runs the command the way the driver does and checks the
// last line of its standard output.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "sum_paper", "--seed", "3", "--seconds", "1", "--trace", "0", "-quick", "-workdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[key]; !ok {
			t.Errorf("result line has no %q", key)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(got))
	}
	if code := run([]string{"--workload", "nosuch"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if p, err := percentile(v, 95); err != nil || p != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", p, err)
	}
	if _, err := percentile(v[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(v[:40], 95); err == nil {
		t.Error("p95 of 40 samples was not refused")
	}
	if p, err := percentile(v[:40], 50); err != nil || p != 20 {
		t.Errorf("p50 of 1..40 = %v, %v; want 20", p, err)
	}
	if _, err := percentile(v, 100); err == nil {
		t.Error("p100 was not refused")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the acceptance check of the benchmark computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "sweep", Dur: 100},
		{ID: 1, Parent: 0, Layer: "minic", Dur: 10},
		{ID: 2, Parent: 0, Layer: "machine", Dur: 70},
		{ID: 3, Parent: 2, Layer: "backend", Dur: 5},
		{ID: 4, Parent: 0, Layer: "machine", Dur: 40},              // children overrun the parent: clamp at 0
		{ID: 5, Parent: -1, Layer: "bench", Dur: 1000},             // glue: outside the shares
		{ID: 6, Parent: -1, Layer: "emu", Dur: 500, Probe: true},   // a probe: outside the table
		{ID: 7, Parent: -1, Layer: "fabric", Dur: -1},              // never ended
		{ID: 8, Parent: 0, Layer: "fabric", Dur: -1, Probe: false}, // never ended: covers nothing
	}
	self := selfTimes(spans)
	want := []int64{0, 10, 65, 5, 40, 1000, 500, 0, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["machine"] != 105 || by["emu"] != 0 || by["bench"] != 1000 {
		t.Errorf("layer self times %v", by)
	}
	if got := layerShare(by, "machine"); math.Abs(got-87.5) > 1e-9 {
		t.Errorf("machine share = %v, want 87.5 (105 of 120, glue excluded)", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(m float64) summary { return summarize("s", []float64{m * 0.99, m, m * 1.01}) }
	noisy := func(m float64) summary { return summarize("s", []float64{m * 0.7, m, m * 1.3}) }
	for _, tc := range []struct {
		name   string
		a, b   summary
		better string
		want   verdict
	}{
		{"same", steady(10), steady(10.2), "lower", verdictOK},
		{"slower", steady(10), steady(12), "lower", verdictRegression},
		{"faster", steady(10), steady(8), "lower", verdictBetter},
		{"throughput down", steady(10), steady(8), "higher", verdictRegression},
		{"throughput up", steady(10), steady(12), "higher", verdictBetter},
		{"too noisy to tell", noisy(10), noisy(10.1), "lower", verdictUnresolved},
		{"noisy but every run better", noisy(10), steady(5), "lower", verdictBetter},
	} {
		if got, _ := judge(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareExactCounts checks that -compare passes a file against itself
// and refuses one whose simulated counts moved.
func TestCompareExactCounts(t *testing.T) {
	cf := loadTestContract(t)
	mk := func(cycles float64) *resultFile {
		f := &resultFile{Schema: resultSchema, Seed: 1, Traced: true, Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			f.Workloads[w.name] = workloadResult{Correct: true, Attempted: 1, Metrics: map[string]summary{
				"machine.cycles": {Unit: "count", Median: cycles, N: 1, Exact: true},
			}}
		}
		return f
	}
	if code := compareResults(cf, mk(100), mk(100), io.Discard); code != 0 {
		t.Errorf("a file against itself: exit %d", code)
	}
	var out bytes.Buffer
	if code := compareResults(cf, mk(100), mk(101), &out); code == 0 || !strings.Contains(out.String(), string(verdictMoved)) {
		t.Errorf("moved cycle count: exit %d, output %q", code, out.String())
	}
}
