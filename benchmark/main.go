// Command benchmark is the repository's benchmark: six workloads over the
// whole pipeline (mini-C / annotated Go → ISA → emulator and cycle-level
// machine → sweep engine and cache → HTTP job server → coordinator/worker
// fabric), each checked for correct outputs, with end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. BENCHMARK.json at
// the repository root lists the workloads and metrics; README.md in this
// directory says why each is there.
//
//	go run ./benchmark --workload sweep_cold --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -seed 1 -o benchmark/out/results.json   # every workload
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a one-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload in a result file.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// resultFile is what -o writes and -compare reads: every workload's metrics
// with their spread, and the host they were measured on.
type resultFile struct {
	Schema     string                    `json:"schema"`
	Seed       uint64                    `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Quick      bool                      `json:"quick"`
	Traced     bool                      `json:"traced"`
	Nproc      int                       `json:"nproc"`
	GoMaxProcs int                       `json:"gomaxprocs"`
	GoVersion  string                    `json:"goVersion"`
	GOOS       string                    `json:"goos"`
	GOARCH     string                    `json:"goarch"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

const resultSchema = "repro-benchmark-v1"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and print its result line (default: every workload)")
	seed := fs.Uint64("seed", 1, "workload seed: generated inputs and the request mix derive from it")
	seconds := fs.Float64("seconds", 10, "how long each workload's repetitions are measured")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and trace.json; 0 = end-to-end metrics")
	quick := fs.Bool("quick", false, "shrunken sizes, one repetition: a smoke run for tests")
	out := fs.String("o", "", "write a result file (every workload) to this path")
	workdir := fs.String("workdir", filepath.Join("benchmark", "out"), "directory for scratch files and trace.json")
	compare := fs.Bool("compare", false, "judge two result files (arguments A.json B.json) by BENCHMARK.json's bounds")
	contract := fs.String("contract", "BENCHMARK.json", "the metric contract -compare reads")
	update := fs.Bool("update-expected", false, "rerun every workload for seeds 1..12 and rewrite benchmark/expected.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	// The layers log through slog; a benchmark run is not the place to read it.
	slog.SetDefault(discardLog)

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(*contract, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *update {
		seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
		if err := updateExpected("benchmark", seeds, *workdir, runtime.NumCPU()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	newConfig := func() (*config, error) {
		c := &config{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), workdir: *workdir, sz: fullSizing()}
		if *quick {
			c.sz, c.seconds = quickSizing(), 0
			return c, nil
		}
		var err error
		c.exp, err = loadExpected()
		return c, err
	}

	var code int
	var err error
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		code, err = runOne(w, newConfig, *trace == 1, stdout, stderr)
	} else {
		file := resultFile{
			Schema: resultSchema, Seed: *seed, Seconds: *seconds, Quick: *quick, Traced: *trace == 1,
			Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Workloads: map[string]workloadResult{},
		}
		code, err = runAll(&file, newConfig, *out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

// runOne is the driver's interface: one workload, its result on the last
// line of standard output, exit code 1 when an output was wrong.
func runOne(w workload, newConfig func() (*config, error), traced bool, stdout, stderr io.Writer) (int, error) {
	c, err := newConfig()
	if err != nil {
		return 1, err
	}
	res, spans, err := measure(w, c, traced, stderr)
	if err != nil {
		return 1, err
	}
	if spans != nil {
		if err := writeChromeTrace(filepath.Join(c.workdir, "trace.json"), map[string][]span{w.name: spans}); err != nil {
			return 1, err
		}
	}
	printWorkload(stderr, w.name, res)
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for n, s := range res.Metrics {
		line.Metrics[n] = metricValue{Value: s.Median, Unit: s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// runAll runs every workload, one after the other in this process, prints
// their metrics and writes the result file when out names one.
func runAll(file *resultFile, newConfig func() (*config, error), out string, stdout, stderr io.Writer) (int, error) {
	allSpans := map[string][]span{}
	workdir := ""
	code := 0
	for _, w := range workloads {
		c, err := newConfig()
		if err != nil {
			return 1, err
		}
		workdir = c.workdir
		resetPeakRSS()
		res, spans, err := measure(w, c, file.Traced, stderr)
		if err != nil {
			return 1, err
		}
		if spans != nil {
			allSpans[w.name] = spans
		}
		file.Workloads[w.name] = res
		if !res.Correct {
			code = 1
		}
		printWorkload(stdout, w.name, res)
	}
	if len(allSpans) > 0 {
		if err := writeChromeTrace(filepath.Join(workdir, "trace.json"), allSpans); err != nil {
			return 1, err
		}
	}
	if out == "" {
		return code, nil
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return 1, err
	}
	return code, os.WriteFile(out, append(data, '\n'), 0o644)
}

// measure runs one workload, untraced for the end-to-end metrics or traced
// for the per-layer ones, and returns its metrics with their spread. The
// traced run also returns its spans and prints the self-time table.
func measure(w workload, c *config, traced bool, stderr io.Writer) (workloadResult, []span, error) {
	res := workloadResult{Metrics: map[string]summary{}}
	var spans []span
	if !traced {
		rr, err := w.run(c)
		if err != nil {
			return res, nil, err
		}
		samples := endToEndSamples(rr)
		for _, d := range endToEnd {
			if len(samples[d.name]) == 0 {
				return res, nil, fmt.Errorf("%s: no sample of %s", w.name, d.name)
			}
			res.Metrics[d.name] = summarize(d.unit, samples[d.name])
		}
	} else {
		t := newTracer()
		lm := newLayerMetrics()
		if err := w.traced(c, t, lm); err != nil {
			return res, nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		spans = t.spans
		by := layerSelf(spans)
		for _, l := range layers {
			lm.set("self_ms."+l, float64(by[l])/1e6)
		}
		lm.set("share_pct.machine", layerShare(by, "machine"))
		lm.set("e2e.failed_share", float64(c.failed)/float64(max(c.attempted, 1)))
		selfTable(stderr, w.name, spans)
		fmt.Fprintf(stderr, "  trace_overhead_pct %.1f\n", lm["trace_overhead_pct"])
		for _, d := range perLayer {
			s := summarize(d.unit, []float64{lm[d.name]})
			s.Exact = d.exact
			res.Metrics[d.name] = s
		}
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0 && c.attempted > 0
	return res, spans, nil
}

func printWorkload(w io.Writer, name string, res workloadResult) {
	status := "correct"
	if !res.Correct {
		status = "WRONG"
	}
	fmt.Fprintf(w, "%s: %s, %d of %d operations failed\n", name, status, res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := res.Metrics[n]
		if s.N > 1 {
			fmt.Fprintf(w, "  %-34s %14.6g %-9s  min %.6g  max %.6g  n=%d\n", n, s.Median, s.Unit, s.Min, s.Max, s.N)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, s.Median, s.Unit)
		}
	}
}

// resetPeakRSS makes peak_rss_mb the next workload's own when several run in
// one process: it gives freed memory back and clears the high-water mark
// (Linux; where that cannot be done the mark stays cumulative).
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
