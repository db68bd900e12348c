package backend_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/backend"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
	"repro/internal/trace"
)

// countedLoop assembles a program that retires exactly insts instructions
// (at least 4): a count load, a two-instruction loop, a nop when insts is
// odd, and hlt.
func countedLoop(t *testing.T, insts int) *isa.Program {
	t.Helper()
	src := fmt.Sprintf("_start: movq $%d, %%rcx\n", (insts-2)/2)
	if insts%2 == 1 {
		src += "        nop\n"
	}
	prog, err := asm.Assemble(src + "loop:   decq %rcx\n        jne loop\n        hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// hooked runs prog on a bare emulator with the trace hook keeping every
// record: what Stream's sink must see.
func hooked(t *testing.T, prog *isa.Program, in backend.Inputs, maxSteps int64) ([]trace.Record, error) {
	t.Helper()
	cpu := emu.New(prog)
	cpu.MaxSteps = maxSteps
	if err := backend.Inject(prog, cpu.Mem, in); err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	cpu.TraceHook = func(r *trace.Record) { recs = append(recs, *r) }
	_, err := cpu.Run()
	return recs, err
}

// streamed runs prog through Stream with the sink keeping every record.
func streamed(prog *isa.Program, in backend.Inputs, maxSteps int64) ([]trace.Record, *backend.Result, error) {
	var recs []trace.Record
	res, err := (&backend.Emulator{MaxSteps: maxSteps}).Stream(prog, in, func(r *trace.Record) { recs = append(recs, *r) })
	return recs, res, err
}

// sameRecords reports the first record where got differs from want, field
// for field, or whose Seq is not its position.
func sameRecords(got, want []trace.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, the hook saw %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != int64(i) {
			return fmt.Errorf("record %d has Seq %d", i, got[i].Seq)
		}
		if got[i] != want[i] {
			return fmt.Errorf("record %d: %+v, the hook saw %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestStreamDeliversEveryRecordInOrder: the sink on Stream's second goroutine
// sees exactly the records a trace hook on the emulator sees, in the same
// order — for every kernel, the paper's sum listings, and counted loops one
// record short of a batch, exactly a batch, and one record past it.
func TestStreamDeliversEveryRecordInOrder(t *testing.T) {
	type program struct {
		name string
		prog *isa.Program
		in   backend.Inputs
	}
	var programs []program
	for _, k := range pbbs.Kernels() {
		n := k.ClampN(32)
		prog, err := k.Build(n, minic.ModeCall)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		programs = append(programs, program{k.Name, prog, k.Gen(n, 1)})
	}
	for _, build := range []struct {
		name  string
		build func([]uint64) (*isa.Program, error)
	}{
		{"sum-call", progs.BuildSumCall},
		{"sum-fork", progs.BuildSumFork},
	} {
		prog, err := build.build(progs.Vector(100))
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{build.name, prog, nil})
	}
	for _, insts := range []int{backend.StreamBatch - 1, backend.StreamBatch, backend.StreamBatch + 1} {
		programs = append(programs, program{fmt.Sprintf("loop%d", insts), countedLoop(t, insts), nil})
	}

	for _, p := range programs {
		want, err := hooked(t, p.prog, p.in, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got, res, err := streamed(p.prog, p.in, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if err := sameRecords(got, want); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		if res.Instructions != int64(len(want)) {
			t.Errorf("%s: %d instructions, %d records", p.name, res.Instructions, len(want))
		}
	}
}

// settled waits, briefly, for the goroutine count to come back to before: the
// sink's goroutine signals its end just before it returns.
func settled(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the Stream", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamStepBoundLeavesNothingRunning: a run cut off by MaxSteps returns
// the step-bound error after its sink has seen every record the emulator
// retired — the partial batch included — and with its second goroutine gone.
func TestStreamStepBoundLeavesNothingRunning(t *testing.T) {
	prog := countedLoop(t, 5*backend.StreamBatch)
	const maxSteps = 2*backend.StreamBatch + 17
	want, wantErr := hooked(t, prog, nil, maxSteps)
	if wantErr == nil {
		t.Fatal("the hooked run was not cut off")
	}
	before := runtime.NumGoroutine()
	got, _, err := streamed(prog, nil, maxSteps)
	var f *emu.Fault
	if !errors.As(err, &f) || !strings.Contains(f.Msg, "step limit") {
		t.Fatalf("Stream returned %v, want the step-bound fault %v", err, wantErr)
	}
	if err := sameRecords(got, want); err != nil {
		t.Error(err)
	}
	settled(t, before)
}

// TestStreamSinkPanicLeavesNothingRunning: a sink that panics makes Stream
// panic on the caller's goroutine with the same value, and one that calls
// runtime.Goexit ends the caller's goroutine; either way the sink is not
// called again, no goroutine is left behind, and the next Stream runs.
func TestStreamSinkPanicLeavesNothingRunning(t *testing.T) {
	prog := countedLoop(t, 3*backend.StreamBatch)
	const stopAt = backend.StreamBatch + 5
	type sentinel struct{ at int }
	for _, stop := range []struct {
		name string
		do   func(calls int)
		want any // what the caller recovers
	}{
		{"panic", func(calls int) { panic(sentinel{calls}) }, sentinel{stopAt}},
		{"goexit", func(int) { runtime.Goexit() }, nil},
	} {
		before := runtime.NumGoroutine()
		calls := 0
		returned, recovered := false, any(nil)
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { recovered = recover() }()
			backend.NewEmulator().Stream(prog, nil, func(*trace.Record) {
				if calls++; calls == stopAt {
					stop.do(calls)
				}
			})
			returned = true
		}()
		<-done
		if returned {
			t.Errorf("%s: Stream returned normally", stop.name)
		}
		if recovered != stop.want {
			t.Errorf("%s: the caller recovered %v, want %v", stop.name, recovered, stop.want)
		}
		if calls != stopAt {
			t.Errorf("%s: the sink was called %d times, stopped at call %d", stop.name, calls, stopAt)
		}
		settled(t, before)
	}
	if got, _, err := streamed(prog, nil, 0); err != nil || len(got) != 3*backend.StreamBatch {
		t.Fatalf("the next Stream: %d records, %v", len(got), err)
	}
}

// TestStreamRecyclesBatches: a traced Stream takes its batches from those
// earlier Streams gave back, so once one run has filled the free list, a run
// several batches long allocates less than one batch.
func TestStreamRecyclesBatches(t *testing.T) {
	prog := countedLoop(t, 10*backend.StreamBatch)
	records := 0
	run := func() {
		if _, err := backend.NewEmulator().Stream(prog, nil, func(*trace.Record) { records++ }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: fills the free list
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	run()
	runtime.ReadMemStats(&ms)
	bytes := ms.TotalAlloc - before
	batch := uint64(backend.StreamBatch) * uint64(unsafe.Sizeof(trace.Record{}))
	t.Logf("%d bytes for a traced run of %d records (a batch is %d bytes)", bytes, records/2, batch)
	if records != 20*backend.StreamBatch {
		t.Fatalf("%d records over two runs", records)
	}
	if bytes >= batch {
		t.Errorf("a warmed traced run allocated %d bytes, one batch is %d: batches are not recycled", bytes, batch)
	}
}
