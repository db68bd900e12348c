package main

import (
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
	got, err := parseInts("-sizes", "1, 4,16", 1)
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 16}) {
		t.Errorf("parseInts(-sizes) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "-3", "4,,8"} {
		msg, err := captureStderr(t, func() error { _, err := parseInts("-sizes", bad, 1); return err })
		if !errors.Is(err, errUsage) || !strings.Contains(msg, "-sizes") {
			t.Errorf("parseInts(-sizes, %q) = %v, want a usage error naming -sizes; stderr %q", bad, err, msg)
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
	if _, err := captureStderr(t, func() error { _, err := parseShortcutAxis("maybe"); return err }); !errors.Is(err, errUsage) {
		t.Errorf("parseShortcutAxis(maybe) = %v, want a usage error", err)
	}
}

func TestParseCaps(t *testing.T) {
	got, err := parseInts("-maxsec", "0,2", 0)
	if err != nil || !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("parseInts(-maxsec) = %v, %v", got, err)
	}
	// A cap is a whole decimal number: a reader that stops at the first
	// non-digit would sweep 1, 0, 2 and 7 for the middle four.
	for _, bad := range []string{"-1", "1x", "0x10", "2.5", "7 8", ""} {
		if got, err := captureStderr(t, func() error { _, err := parseInts("-maxsec", bad, 0); return err }); !errors.Is(err, errUsage) {
			t.Errorf("parseInts(-maxsec, %q) = %v, want a usage error; stderr %q", bad, err, got)
		}
	}
}

// TestSelectKernels drives the -kernel selector through cmdILP: "all" is
// every kernel, a benchmark number and a name substring pick the same one,
// a list of names picks each of them in benchmark order (CI's "smoke ilp"
// row), and an unknown selector is refused before anything is measured.
func TestSelectKernels(t *testing.T) {
	rowsAt := func(sel, sizes string) ([]string, error) {
		out, err := capture(t, func() error { return cmdILP([]string{"-kernel", sel, "-sizes", sizes}) })
		lines := strings.Split(strings.TrimSpace(out), "\n")
		return lines[min(2, len(lines)):], err // past the title and header
	}
	rows := func(sel string) ([]string, error) { return rowsAt(sel, "8") }
	all, err := rows("all")
	if err != nil || len(all) != len(pbbs.Kernels()) {
		t.Errorf("-kernel all = %d rows, %v; want %d", len(all), err, len(pbbs.Kernels()))
	}
	two, err := rows("2")
	if err != nil || len(two) != 1 || !strings.HasPrefix(two[0], "2 ") {
		t.Errorf("-kernel 2 = %q, %v", two, err)
	}
	if byName, err := rows("quicksort"); err != nil || !reflect.DeepEqual(byName, two) {
		t.Errorf("-kernel quicksort = %q, %v; want -kernel 2's %q", byName, err, two)
	}
	listed, err := rowsAt("quicksort,radix", "64")
	var ids []string
	for _, row := range listed {
		ids = append(ids, strings.Fields(row)[0])
	}
	if err != nil || !reflect.DeepEqual(ids, []string{"2", "5"}) {
		t.Errorf("-kernel quicksort,radix -sizes 64 = benchmarks %q, %v; want 2 and 5:\n%s", ids, err, strings.Join(listed, "\n"))
	}
	if got, err := rows("zzz"); err == nil || len(got) != 0 {
		t.Errorf("-kernel zzz = %q, %v; want an error and no rows", got, err)
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
// still had a scheduler switch and an optional pool, and machine until the
// dense scheduler became a test oracle only. The retired commands (the
// simulator-timing one, bench, whose rows repro ilp checks, and fuzz, whose
// campaign is FuzzTripleEquivalence) are unknown commands, and the kernel
// suite's -vet mode, whose machine legs are repro machine, is an undefined
// flag: exit 2 as well.
func TestRunBadFlag(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"analytic", "-bogus"}, "not defined: -bogus"},
		{[]string{"machine", "-sim-workers", "4"}, "not defined: -sim-workers"},
		{[]string{"sweep", "-sim-workers", "4"}, "not defined: -sim-workers"},
		{[]string{"serve", "-sim-workers", "4"}, "not defined: -sim-workers"},
		{[]string{"worker", "-sim-workers", "4"}, "not defined: -sim-workers"},
		{[]string{"machine", "-dense"}, "not defined: -dense"},
		{[]string{"sweep", "-dense"}, "not defined: -dense"},
		{[]string{"serve", "-dense"}, "not defined: -dense"},
		{[]string{"worker", "-dense"}, "not defined: -dense"},
		{[]string{"sweep", "-machine-pool"}, "not defined: -machine-pool"},
		{[]string{"serve", "-machine-pool"}, "not defined: -machine-pool"},
		{[]string{"worker", "-machine-pool"}, "not defined: -machine-pool"},
		{[]string{"bench-sim", "-quick"}, `unknown command "bench-sim"`},
		{[]string{"bench", "-n", "64"}, `unknown command "bench"`},
		{[]string{"fuzz", "-count", "48"}, `unknown command "fuzz"`},
		{[]string{"kernels", "-vet"}, "not defined: -vet"},
	}
	for _, c := range cases {
		out, err := captureStderr(t, func() error { return run(c.args) })
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want errUsage", c.args, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("run(%v): stderr lacks %q:\n%s", c.args, c.want, out)
		}
	}
}

// TestBadFlagValues: a malformed or out-of-range flag value is a usage error
// (exit 2) that names the flag, refused before anything runs — not a "bad
// size" for a core count, nor a FAIL row per kernel and exit 1 for zero cores.
func TestBadFlagValues(t *testing.T) {
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"sweep", "-cores", "0"}, "-cores"},
		{[]string{"sweep", "-cores", "1,x"}, "-cores"},
		{[]string{"sweep", "-sizes", "0"}, "-sizes"},
		{[]string{"sweep", "-shortcut", "maybe"}, "-shortcut"},
		{[]string{"sweep", "-maxsec", "1x"}, "-maxsec"},
		{[]string{"sweep", "-topos", "torus"}, "-topos"},
		{[]string{"ilp", "-sizes", "-8"}, "-sizes"},
		{[]string{"machine", "-cores", "0"}, "-cores"},
	}
	for _, c := range cases {
		var msg string
		out, err := capture(t, func() (err error) {
			msg, err = captureStderr(t, func() error { return run(c.args) })
			return err
		})
		if !errors.Is(err, errUsage) || exitCode(err) != 2 {
			t.Errorf("run(%v) = %v, want a usage error (exit 2)", c.args, err)
		}
		if !strings.Contains(msg, c.flag) {
			t.Errorf("run(%v): stderr does not name %s:\n%s", c.args, c.flag, msg)
		}
		if out != "" {
			t.Errorf("run(%v) ran before refusing:\n%s", c.args, out)
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
	out, err := capture(t, func() error { return cmdMachine([]string{"-kernel", "10", "-n", "8", "-cores", "2"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rax and memory match emulator") {
		t.Errorf("machine output:\n%s", out)
	}
}

// TestVetKernelSuite is the front-end gate: every kernel, hand-written
// mini-C and lowered annotated Go alike, at its MinN (-n 1 clamps to it) and
// at n=32 on 4 cores, runs on the machine and agrees with the emulator (rax
// and the whole data segment) and with its reference checksum. A reference
// that moves fails it.
func TestVetKernelSuite(t *testing.T) {
	const ok = "ok (rax and memory match emulator)"
	for _, n := range []string{"1", "32"} {
		out, err := capture(t, func() error { return cmdMachine([]string{"-n", n, "-cores", "4"}) })
		if rows := strings.Count(out, ok); err != nil || rows != 11 {
			t.Errorf("machine -n %s -cores 4: %d ok rows, %v; want 11:\n%s", n, rows, err, out)
		}
	}
	k, err := pbbs.Find("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	ref := k.Ref
	t.Cleanup(func() { k.Ref = ref })
	k.Ref = func(n int, in pbbs.Inputs) (uint64, error) {
		want, err := ref(n, in)
		return want ^ 1, err
	}
	out, err := capture(t, func() error { return cmdMachine([]string{"-n", "32", "-cores", "4"}) })
	if rows := strings.Count(out, ok); err == nil || rows != 10 || !strings.Contains(out, "machine checksum") {
		t.Errorf("machine -n 32 with a doctored quickSort reference: %d ok rows, %v; want 10 and a checksum failure:\n%s", rows, err, out)
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
