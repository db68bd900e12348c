// Package backend is the measurement path both substrates share — compile
// (caller) → inject inputs → run → optional trace capture → result — as four
// plain functions:
//
//   - Inject writes a workload's inputs at their data symbols.
//   - Emulator.Run executes on the functional sequential emulator
//     (internal/emu), which runs call-mode and fork-mode programs, streams
//     the dynamic trace to the internal/ilp dependence models
//     (Emulator.Stream; Run can store it), and is the oracle.
//   - RunMachine executes on the cycle-level many-core simulator
//     (internal/machine), which runs fork-mode programs only and reports
//     cycles and per-stage timing besides the architectural result.
//   - CrossValidate is the oracle check that keeps the two in agreement,
//     through SameState, the one comparison of two runs' final states.
//
// It stands behind the Section 3 trace study (Fig. 7, via the emulator) and
// the Section 4/5 machine evaluation alike.
package backend

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Inputs maps data-segment symbols to the 64-bit words written into memory
// before the run starts.
type Inputs map[string][]uint64

// Result is the outcome of one execution.
type Result struct {
	// RAX is the conventional program result (rax at halt).
	RAX uint64
	// Instructions is the dynamic instruction count.
	Instructions int64
	// Cycles is the simulated time: equal to Instructions on the sequential
	// emulator, the simulated clock on the machine.
	Cycles int64
	// Trace is the stored dynamic trace; nil unless Emulator.Run was asked to
	// capture it.
	Trace *trace.Trace
	// Mem is the final memory state (the emulator's memory or the machine's
	// committed data memory hierarchy).
	Mem *emu.Memory
	// Machine holds the full machine result of a RunMachine; nil otherwise.
	Machine *machine.Result
}

// Inject writes the inputs at their symbol addresses. It is exported for
// callers that manage machine lifetimes themselves — the warm-machine pool in
// internal/sweep re-injects inputs after Machine.Reset exactly as a fresh
// construction would.
func Inject(prog *isa.Program, mem *emu.Memory, in Inputs) error {
	for sym, words := range in {
		addr, ok := prog.DataAddr(sym)
		if !ok {
			return fmt.Errorf("backend: program has no data symbol %q", sym)
		}
		for i, w := range words {
			mem.WriteU64(addr+uint64(8*i), w)
		}
	}
	return nil
}

// Emulator is the sequential functional substrate.
type Emulator struct {
	// MaxSteps bounds the run; 0 uses the emulator default.
	MaxSteps int64
}

// NewEmulator returns an emulator with a generous step bound.
func NewEmulator() *Emulator { return &Emulator{MaxSteps: 1 << 31} }

// Run injects the inputs into a fresh memory image, executes prog (either
// calling convention) to completion and returns the result, with the dynamic
// trace stored when captureTrace is set: the emulator writes it into one
// buffer it grows as it goes.
func (e *Emulator) Run(prog *isa.Program, in Inputs, captureTrace bool) (*Result, error) {
	cpu, err := e.load(prog, in)
	if err != nil {
		return nil, err
	}
	if captureTrace {
		cpu.TraceHook = (*trace.Buffer).Grow
	}
	res, err := run(cpu)
	if err != nil {
		return nil, err
	}
	if captureTrace {
		res.Trace = &trace.Trace{Records: cpu.Trace.Records[:cpu.Trace.N]}
	}
	return res, nil
}

// Stream is Run with the dynamic trace handed, a batch of records at a time,
// to sink instead of being stored: a trace is as long as the run and an
// analysis that reads it once (ilp.Fig7) needs none of it kept.
//
// The emulator runs on the caller's goroutine and sink on a second one, a few
// thousand records behind (see streamBatch), so the analysis and the
// emulation run at once. The sink is called once per batch of consecutive
// records, in trace order and never concurrently; the batch holds at least
// one record and is valid only during the call. Stream returns after the last
// call, on the error paths too, and a panic in the sink is re-raised on the
// caller's goroutine once the emulator has stopped. A nil sink runs
// untraced, with no second goroutine.
func (e *Emulator) Stream(prog *isa.Program, in Inputs, sink func([]trace.Record)) (*Result, error) {
	cpu, err := e.load(prog, in)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		p := startPipe(sink)
		defer p.finish(&cpu.Trace)
		cpu.TraceHook = p.refill
	}
	return run(cpu)
}

// load returns an emulator for prog with the inputs injected.
func (e *Emulator) load(prog *isa.Program, in Inputs) (*emu.CPU, error) {
	cpu := emu.New(prog)
	cpu.MaxSteps = e.MaxSteps
	if err := Inject(prog, cpu.Mem, in); err != nil {
		return nil, err
	}
	return cpu, nil
}

// run executes cpu to completion.
func run(cpu *emu.CPU) (*Result, error) {
	if _, err := cpu.Run(); err != nil {
		return nil, err
	}
	return &Result{
		RAX:          cpu.Result(),
		Instructions: cpu.Steps,
		Cycles:       cpu.Steps,
		Mem:          cpu.Mem,
	}, nil
}

// RunMachine builds the simulated chip cfg describes, injects the inputs and
// executes prog, which must be compiled in fork mode, to completion.
func RunMachine(prog *isa.Program, in Inputs, cfg machine.Config) (*Result, error) {
	sim, err := machine.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	if err := Inject(prog, sim.DMH(), in); err != nil {
		return nil, err
	}
	r, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return &Result{
		RAX:          r.RAX,
		Instructions: r.Instructions,
		Cycles:       r.Cycles,
		Mem:          sim.DMH(),
		Machine:      r,
	}, nil
}

// CrossValidate runs prog with the same inputs on the emulator and on the
// machine cfg describes and checks that they leave the same state
// (SameState). It returns the two results for further inspection.
func CrossValidate(prog *isa.Program, in Inputs, cfg machine.Config) (emulator, mach *Result, err error) {
	emulator, err = NewEmulator().Run(prog, in, false)
	if err != nil {
		return nil, nil, fmt.Errorf("emulator: %w", err)
	}
	mach, err = RunMachine(prog, in, cfg)
	if err != nil {
		return emulator, nil, fmt.Errorf("machine (%d cores): %w", cfg.Cores, err)
	}
	return emulator, mach, SameState(prog, emulator, mach, fmt.Sprintf("machine (%d cores)", cfg.Cores))
}

// SameState returns nil if emulator and other, two runs of prog, leave the
// same final state: the same rax and the same word at every address of the
// data segment (which holds all global arrays of mini-C programs). Otherwise
// it returns an error naming the first difference, with other called name.
func SameState(prog *isa.Program, emulator, other *Result, name string) error {
	if emulator.RAX != other.RAX {
		return fmt.Errorf("mismatch: emulator rax=%d, %s rax=%d", emulator.RAX, name, other.RAX)
	}
	for off := uint64(0); off < uint64(len(prog.Data)); off += 8 {
		addr := isa.DataBase + off
		if ve, vo := emulator.Mem.ReadU64(addr), other.Mem.ReadU64(addr); ve != vo {
			return fmt.Errorf("mismatch at data[%#x]: emulator=%d, %s=%d", addr, ve, name, vo)
		}
	}
	return nil
}
