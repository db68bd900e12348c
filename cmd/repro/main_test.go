package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pbbs"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("1, 4,16")
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 16}) {
		t.Errorf("parseSizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "-3", "4,,8"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

func TestParseShortcutAxis(t *testing.T) {
	got, err := parseShortcutAxis("on,off")
	if err != nil || !reflect.DeepEqual(got, []bool{true, false}) {
		t.Errorf("parseShortcutAxis = %v, %v", got, err)
	}
	got, err = parseShortcutAxis("both")
	if err != nil || !reflect.DeepEqual(got, []bool{true, false}) {
		t.Errorf("parseShortcutAxis(both) = %v, %v", got, err)
	}
	if _, err := parseShortcutAxis("maybe"); err == nil {
		t.Error("parseShortcutAxis accepted garbage")
	}
}

func TestParseCaps(t *testing.T) {
	got, err := parseCaps("0,2")
	if err != nil || !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("parseCaps = %v, %v", got, err)
	}
	// A cap is a whole decimal number: a reader that stops at the first
	// non-digit would sweep 1, 0, 2 and 7 for the middle four.
	for _, bad := range []string{"-1", "1x", "0x10", "2.5", "7 8", ""} {
		if got, err := parseCaps(bad); err == nil {
			t.Errorf("parseCaps(%q) = %v, want an error", bad, got)
		}
	}
}

func TestSelectKernels(t *testing.T) {
	all, err := selectKernels(0)
	if err != nil || len(all) != len(pbbs.Kernels()) {
		t.Errorf("selectKernels(0) = %d kernels, %v", len(all), err)
	}
	one, err := selectKernels(2)
	if err != nil || len(one) != 1 || one[0].ID != 2 {
		t.Errorf("selectKernels(2) = %v, %v", one, err)
	}
	if _, err := selectKernels(99); err == nil {
		t.Error("selectKernels accepted an unknown benchmark number")
	}
}

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		r.Close()
		done <- string(data)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

// captureStderr runs f with stderr redirected and returns what it printed.
func captureStderr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		r.Close()
		done <- string(data)
	}()
	ferr := f()
	w.Close()
	os.Stderr = old
	return <-done, ferr
}

// The exit-path tests pin the shared error return: no subcommand or usage
// path calls os.Exit itself, so run() is testable end to end and deferred
// cleanup always executes.

func TestRunUnknownCommand(t *testing.T) {
	out, err := captureStderr(t, func() error { return run([]string{"frobnicate"}) })
	if !errors.Is(err, errUsage) {
		t.Fatalf("run(frobnicate) = %v, want errUsage", err)
	}
	if !strings.Contains(out, `unknown command "frobnicate"`) || !strings.Contains(out, "usage: repro") {
		t.Errorf("unknown-command stderr:\n%s", out)
	}
}

func TestRunNoArgs(t *testing.T) {
	out, err := captureStderr(t, func() error { return run(nil) })
	if !errors.Is(err, errUsage) {
		t.Fatalf("run() = %v, want errUsage", err)
	}
	if !strings.Contains(out, "usage: repro") {
		t.Errorf("no-args stderr:\n%s", out)
	}
}

func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"help", "-h", "--help"} {
		out, err := captureStderr(t, func() error { return run([]string{arg}) })
		if err != nil {
			t.Errorf("run(%s) = %v, want nil", arg, err)
		}
		if !strings.Contains(out, "usage: repro") {
			t.Errorf("%s stderr:\n%s", arg, out)
		}
	}
}

// TestRunBadFlag: an undefined flag is a usage error (exit 2) that names the
// flag on stderr — including -sim-workers, which every simulating subcommand
// accepted until the parallel scheduler was removed, and -dense /
// -machine-pool, which sweep, serve and worker accepted while the engine
// still had a scheduler switch and an optional pool (-dense lives on only on
// `repro machine`), and the ten flags bench-sim had while it carried its own
// grid knobs, report loader and compare (it keeps -quick, -o and -cpuprofile).
func TestRunBadFlag(t *testing.T) {
	cases := [][]string{
		{"analytic", "-bogus"},
		{"machine", "-sim-workers", "4"},
		{"sweep", "-sim-workers", "4"},
		{"bench-sim", "-sim-workers", "4"},
		{"serve", "-sim-workers", "4"},
		{"worker", "-sim-workers", "4"},
		{"sweep", "-dense"},
		{"serve", "-dense"},
		{"worker", "-dense"},
		{"sweep", "-machine-pool"},
		{"serve", "-machine-pool"},
		{"worker", "-machine-pool"},
		{"bench-sim", "-kernels", "quicksort"},
		{"bench-sim", "-n", "8"},
		{"bench-sim", "-cores", "1,2"},
		{"bench-sim", "-seed", "2"},
		{"bench-sim", "-runs", "1"},
		{"bench-sim", "-bigns", "none"},
		{"bench-sim", "-verify", "BENCH_machine.json"},
		{"bench-sim", "-against", "BENCH_machine.json"},
		{"bench-sim", "-tolerance", "4.0"},
		{"bench-sim", "-memprofile", "mem.pprof"},
	}
	for _, args := range cases {
		out, err := captureStderr(t, func() error { return run(args) })
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want errUsage", args, err)
		}
		if want := "not defined: " + args[1]; !strings.Contains(out, want) {
			t.Errorf("run(%v): stderr lacks %q:\n%s", args, want, out)
		}
	}
}

func TestRunHelpFlag(t *testing.T) {
	_, err := captureStderr(t, func() error { return run([]string{"analytic", "-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(analytic -h) = %v, want flag.ErrHelp", err)
	}
}

func TestRunDispatches(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"analytic", "-maxn", "2"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Section 5") {
		t.Errorf("run(analytic) output:\n%s", out)
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{errUsage, 2},
		{errors.New("boom"), 1},
	}
	for _, c := range cases {
		code := 0
		out, _ := captureStderr(t, func() error { code = exitCode(c.err); return nil })
		if code != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, code, c.want)
		}
		if c.want == 1 && !strings.Contains(out, "repro: boom") {
			t.Errorf("runtime failure not reported on stderr: %q", out)
		}
	}
}

func TestCmdServeBadAddr(t *testing.T) {
	if err := cmdServe([]string{"-addr", "256.256.256.256:0", "-cache", ""}); err == nil {
		t.Error("serve accepted an unusable listen address")
	}
}

// The subcommand smoke tests exercise flag parsing and dispatch end to end
// on tiny datasets; output correctness is covered by the package tests.

func TestCmdBenchSmoke(t *testing.T) {
	out, err := capture(t, func() error { return cmdBench([]string{"-kernel", "2", "-n", "8"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "quickSort") || !strings.Contains(out, "ok") {
		t.Errorf("bench output:\n%s", out)
	}
}

func TestCmdILPSmoke(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdILP([]string{"-kernel", "10", "-sizes", "8", "-workers", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 7") {
		t.Errorf("ilp output:\n%s", out)
	}
}

func TestCmdMachineSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "10", "-n", "8", "-cores", "2"},
		{"-kernel", "10", "-n", "8", "-cores", "2", "-dense"},
	} {
		out, err := capture(t, func() error { return cmdMachine(args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out, "rax and memory match emulator") {
			t.Errorf("machine output for %v:\n%s", args, out)
		}
	}
}

func TestCmdAnalyticSmoke(t *testing.T) {
	out, err := capture(t, func() error { return cmdAnalytic([]string{"-maxn", "3"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Section 5") {
		t.Errorf("analytic output:\n%s", out)
	}
	// The whole accepted range prints counts that fit int64; beyond it is a
	// usage error naming the range, not an overflowed or empty table.
	out, err = capture(t, func() error { return cmdAnalytic([]string{"-maxn", "57"}) })
	if err != nil || strings.Contains(out, " -") {
		t.Errorf("analytic -maxn 57 = %v, with a negative count:\n%s", err, out)
	}
	for _, bad := range []string{"58", "61", "70", "-1"} {
		msg, err := captureStderr(t, func() error { return cmdAnalytic([]string{"-maxn", bad}) })
		if !errors.Is(err, errUsage) || !strings.Contains(msg, "0..57") {
			t.Errorf("analytic -maxn %s = %v, want errUsage naming the range; stderr:\n%s", bad, err, msg)
		}
	}
}

func TestCmdSweepSmoke(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "s.jsonl")
	args := []string{"-kernels", "10", "-sizes", "8", "-cores", "1,2",
		"-cache", filepath.Join(dir, "cache"), "-o", jsonl}
	out, err := capture(t, func() error { return cmdSweep(args) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "benchmark") {
		t.Errorf("sweep output:\n%s", out)
	}
	if fi, err := os.Stat(jsonl); err != nil || fi.Size() == 0 {
		t.Errorf("sweep JSONL missing or empty: %v", err)
	}
	// Diff mode over the file we just produced: all speedups 1.00.
	out, err = capture(t, func() error {
		return cmdSweep([]string{"-baseline", jsonl, "-against", jsonl})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep diff") {
		t.Errorf("sweep diff output:\n%s", out)
	}
}

func TestCmdFuzzSmoke(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return cmdFuzz([]string{"-count", "6", "-workers", "2", "-o", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "programs agree across all substrates") {
		t.Errorf("fuzz output:\n%s", out)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("clean campaign wrote reproducers: %v, %v", ents, err)
	}
}

func TestCmdFuzzUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-count", "-1"},
		{"-count", "0"}, // unbounded needs -duration
		{"-workers", "-2"},
	} {
		_, err := captureStderr(t, func() error { return cmdFuzz(args) })
		if !errors.Is(err, errUsage) {
			t.Errorf("fuzz %v = %v, want errUsage", args, err)
		}
	}
}

func TestCmdBenchSimSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_machine.json")
	out, err := capture(t, func() error {
		return cmdBenchSim([]string{"-quick", "-o", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "speedup") {
		t.Errorf("bench-sim output:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema string
		Points []struct {
			Kernel              string
			N, Cores            int
			DenseNs, IdleSkipNs int64
		}
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "bench-machine-v3" {
		t.Errorf("report schema %q, want bench-machine-v3", rep.Schema)
	}
	// The quick grid: removeDuplicates on 1 and 64 cores under both
	// schedulers, then the two idle-skip-only points.
	want := []struct {
		kernel   string
		n, cores int
		dense    bool
	}{
		{"removeDuplicates/deterministicHash", 64, 1, true},
		{"removeDuplicates/deterministicHash", 64, 64, true},
		{"comparisonSort/quickSort", 512, 64, false},
		{"paper/sum", 2560, 3072, false},
	}
	if len(rep.Points) != len(want) {
		t.Fatalf("report has %d rows, want %d: %+v", len(rep.Points), len(want), rep.Points)
	}
	for i, w := range want {
		p := rep.Points[i]
		if p.Kernel != w.kernel || p.N != w.n || p.Cores != w.cores || p.IdleSkipNs <= 0 || (p.DenseNs > 0) != w.dense {
			t.Errorf("row %d is %+v, want %+v", i, p, w)
		}
	}
}
