// Scheduler oracle over the full PBBS suite. This lives in the external test
// package because internal/pbbs imports internal/backend, which imports
// internal/machine — an in-package test would be an import cycle. The small
// hand-built workloads' dense ≡ idle-skip checks (and the scheduler-internals
// tests) stay in sched_test.go.
package machine_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// runMachine executes a compiled kernel on one scheduler and returns the
// full machine result. The program and inputs are built once by the caller
// and shared across the two schedulers: timing rows carry instruction
// pointers, so bit-identity is only meaningful against the same compilation.
func runMachine(t *testing.T, k *pbbs.Kernel, prog *isa.Program, in pbbs.Inputs, n, cores int, dense bool) *machine.Result {
	t.Helper()
	mb := &backend.Machine{Cfg: machine.Config{
		Cores:         cores,
		CreateLatency: 2,
		Shortcut:      true,
		Dense:         dense,
	}}
	res, err := mb.Run(prog, in, false)
	if err != nil {
		t.Fatalf("%s n=%d cores=%d dense=%v: %v", k.Name, n, cores, dense, err)
	}
	want, err := k.Ref(n, in)
	if err != nil {
		t.Fatalf("%s n=%d: reference: %v", k.Name, n, err)
	}
	if res.RAX != want {
		t.Fatalf("%s n=%d cores=%d: checksum %d, reference %d", k.Name, n, cores, res.RAX, want)
	}
	return res.Machine
}

// sameResult asserts two machine results are bit-identical, down to each
// instruction's six stage timestamps and each section record.
func sameResult(t *testing.T, label string, a, b *machine.Result) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.RAX != b.RAX ||
		a.FetchDone != b.FetchDone || a.RetireDone != b.RetireDone ||
		a.RegRequests != b.RegRequests || a.MemRequests != b.MemRequests ||
		a.CreateMessages != b.CreateMessages || a.RequestHops != b.RequestHops ||
		a.ResponseMessages != b.ResponseMessages || a.DMHAnswers != b.DMHAnswers {
		t.Errorf("%s: headline metrics differ:\n a: %s\n b: %s", label, a.Summary(), b.Summary())
	}
	if a.Regs != b.Regs {
		t.Errorf("%s: final register files differ", label)
	}
	if !reflect.DeepEqual(a.Sections, b.Sections) {
		t.Errorf("%s: section records differ", label)
	}
	if len(a.Timings) != len(b.Timings) {
		t.Fatalf("%s: %d vs %d timing rows", label, len(a.Timings), len(b.Timings))
	}
	for i := range a.Timings {
		if a.Timings[i] != b.Timings[i] {
			t.Errorf("%s: timing row %d differs:\n a: %+v\n b: %+v", label, i, a.Timings[i], b.Timings[i])
			return
		}
	}
}

// TestThreeWayOracle pins the production scheduler's exactness on the
// paper's workloads. The three ways are the kernel's reference checksum, the
// dense reference loop and the idle-skip scheduler: for every one of the
// eleven kernels both schedulers reproduce the reference checksum
// (runMachine) and are bit-identical to each other — same cycle count, same
// per-instruction stage timestamps, same NoC accounting, same final
// architectural state.
func TestThreeWayOracle(t *testing.T) {
	for _, k := range pbbs.Kernels() {
		k := k
		t.Run(fmt.Sprintf("%02d-%s", k.ID, k.Name), func(t *testing.T) {
			n := k.ClampN(12)
			prog, err := k.Build(n, minic.ModeFork)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			in := k.Gen(n, 1)
			for _, cores := range []int{1, 4, 16} {
				dense := runMachine(t, k, prog, in, n, cores, true)
				skip := runMachine(t, k, prog, in, n, cores, false)
				sameResult(t, fmt.Sprintf("%s n=%d cores=%d dense vs idle-skip", k.Name, n, cores), dense, skip)
			}
		})
	}
}
