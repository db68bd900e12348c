package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is how one metric of one workload fared from result file A to B.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictBetter     verdict = "better"
	verdictRegression verdict = "REGRESSION"
	// verdictUnresolved is a metric whose run-to-run spread is wider than
	// its bound: its medians cannot show that nothing moved.
	verdictUnresolved verdict = "unresolved"
	verdictMoved      verdict = "MOVED" // an exact count that differs
)

// judge compares two summaries of one bounded metric. worse is how much
// worse B's median is than A's, as a share of A's (negative when better).
func judge(a, b summary, better string, bound float64) (verdict, float64) {
	if a.Median == 0 {
		return verdictUnresolved, 0
	}
	worse := (b.Median - a.Median) / a.Median
	if better == "higher" {
		worse = -worse
	}
	spread := max(a.spread(), b.spread())
	separated := a.N > 1 && b.N > 1 &&
		((better == "lower" && b.Max < a.Min) || (better == "higher" && b.Min > a.Max))
	switch {
	case worse > bound && spread <= bound:
		return verdictRegression, worse
	case spread > bound && !separated:
		return verdictUnresolved, worse
	case worse < -bound:
		return verdictBetter, worse
	}
	return verdictOK, worse
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// compareFiles judges result file B against A, workload by workload and
// metric by metric: the bounded end-to-end metrics by their bounds in the
// contract, the exact counts by equality. It returns 1 when anything
// regressed, an exact count moved, or either file holds a failed operation.
func compareFiles(contractPath, pathA, pathB string, stdout, stderr io.Writer) int {
	cf, err := loadContract(contractPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareResults(cf, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareResults(cf *contractFile, a, b *resultFile, w io.Writer) int {
	code := 0
	if a.Seed != b.Seed || a.Quick != b.Quick || a.Traced != b.Traced {
		fmt.Fprintf(w, "note: the files differ in seed (%d, %d), -quick or -trace; exact counts are only comparable at one seed\n", a.Seed, b.Seed)
	}
	if a.Nproc != b.Nproc || a.GoVersion != b.GoVersion {
		fmt.Fprintf(w, "note: measured on different hosts or toolchains (%d CPUs %s, %d CPUs %s)\n", a.Nproc, a.GoVersion, b.Nproc, b.GoVersion)
	}
	for _, wl := range cf.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%s: missing from one file\n", wl.Name)
			code = 1
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		if ra.Failed > 0 || rb.Failed > 0 || !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "  FAILED operations: %d of %d, then %d of %d\n", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			code = 1
		}
		for _, m := range cf.EndToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue // a traced file holds no end-to-end metrics
			}
			v, worse := judge(sa, sb, m.Better, m.Bound)
			if v == verdictRegression {
				code = 1
			}
			fmt.Fprintf(w, "  %-20s %12.6g → %-12.6g %s  %+6.1f%% worse (bound %.0f%%, spread %.1f%% / %.1f%%)  %s\n",
				m.Name, sa.Median, sb.Median, m.Unit, 100*worse, 100*m.Bound, 100*sa.spread(), 100*sb.spread(), v)
		}
		for _, m := range cf.PerLayer {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB || !sa.Exact || a.Seed != b.Seed {
				continue
			}
			if sa.Median != sb.Median {
				code = 1
				fmt.Fprintf(w, "  %-20s %v → %v %s  %s\n", m.Name, sa.Median, sb.Median, m.Unit, verdictMoved)
			}
		}
	}
	if code == 0 {
		fmt.Fprintln(w, "no regression")
	}
	return code
}

// contractFile is BENCHMARK.json.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contractFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cf contractFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cf, nil
}
