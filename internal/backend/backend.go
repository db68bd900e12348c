// Package backend abstracts the two execution substrates of the
// reproduction behind one interface, so that any workload — a PBBS kernel, a
// hand-written listing, a future suite — can be compiled once per calling
// convention, injected with its inputs, executed, optionally traced, and
// cross-validated between substrates:
//
//   - Emulator: the functional sequential emulator (internal/emu). It runs
//     both call-mode and fork-mode programs, captures dynamic traces for the
//     internal/ilp dependence models, and serves as the oracle.
//   - Machine: the cycle-level many-core simulator (internal/machine). It
//     runs fork-mode programs only and reports cycles and per-stage timing in
//     addition to the architectural result.
//
// The pipeline a backend implements is the paper's measurement path —
// compile (caller) → inject inputs → run → optional trace capture → result
// — behind both the Section 3 trace study (Fig. 7, via the emulator) and
// the Section 4/5 machine evaluation; CrossValidate is the oracle check
// that keeps the two substrates in agreement.
package backend

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/trace"
)

// Inputs maps data-segment symbols to the 64-bit words written into memory
// before the run starts.
type Inputs map[string][]uint64

// MemReader is the part of a memory the caller may inspect after a run.
type MemReader interface {
	ReadU64(addr uint64) uint64
}

// Result is the outcome of one backend execution.
type Result struct {
	// Backend names the substrate that produced this result.
	Backend string
	// RAX is the conventional program result (rax at halt).
	RAX uint64
	// Instructions is the dynamic instruction count.
	Instructions int64
	// Cycles is the simulated time: equal to Instructions on the sequential
	// emulator, the simulated clock on the machine.
	Cycles int64
	// Trace is the captured dynamic trace; nil unless requested and
	// supported.
	Trace *trace.Trace
	// Mem exposes the final memory state (the emulator's memory or the
	// machine's committed data memory hierarchy).
	Mem MemReader
	// Machine holds the full machine result when the machine backend ran;
	// nil otherwise.
	Machine *machine.Result
}

// Backend executes programs.
type Backend interface {
	// Name identifies the backend for reports.
	Name() string
	// Mode is the calling convention programs must be compiled in to run
	// here. The emulator accepts both modes; the machine requires ModeFork.
	Mode() minic.Mode
	// SupportsTrace reports whether Run can capture a dynamic trace.
	SupportsTrace() bool
	// Run injects the inputs into a fresh memory image, executes prog to
	// completion and returns the result. When captureTrace is set and the
	// backend supports it, Result.Trace holds the dynamic trace.
	Run(prog *isa.Program, in Inputs, captureTrace bool) (*Result, error)
}

// Writer is the injection target: both emu.Memory and the machine DMH
// implement it.
type Writer interface {
	WriteU64(addr, v uint64)
}

// Inject writes the inputs at their symbol addresses. It is exported for
// callers that manage machine lifetimes themselves — the warm-machine pool in
// internal/sweep re-injects inputs after Machine.Reset exactly as a fresh
// construction would.
func Inject(prog *isa.Program, mem Writer, in Inputs) error {
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

// Emulator is the sequential functional backend.
type Emulator struct {
	// MaxSteps bounds the run; 0 uses the emulator default.
	MaxSteps int64
}

// NewEmulator returns an emulator backend with a generous step bound.
func NewEmulator() *Emulator { return &Emulator{MaxSteps: 1 << 31} }

// Name implements Backend.
func (e *Emulator) Name() string { return "emu" }

// Mode implements Backend. Call mode is the canonical convention here; the
// emulator also runs fork-mode programs with their sequential-trace
// semantics.
func (e *Emulator) Mode() minic.Mode { return minic.ModeCall }

// SupportsTrace implements Backend.
func (e *Emulator) SupportsTrace() bool { return true }

// Run implements Backend.
func (e *Emulator) Run(prog *isa.Program, in Inputs, captureTrace bool) (*Result, error) {
	cpu := emu.New(prog)
	cpu.MaxSteps = e.MaxSteps
	var tr *trace.Trace
	if captureTrace {
		tr = &trace.Trace{}
		cpu.TraceHook = func(r *trace.Record) { tr.Append(*r) }
	}
	if err := Inject(prog, cpu.Mem, in); err != nil {
		return nil, err
	}
	if _, err := cpu.Run(); err != nil {
		return nil, err
	}
	return &Result{
		Backend:      e.Name(),
		RAX:          cpu.Result(),
		Instructions: cpu.Steps,
		Cycles:       cpu.Steps,
		Trace:        tr,
		Mem:          cpu.Mem,
	}, nil
}

// Machine is the cycle-level many-core backend.
type Machine struct {
	// Cfg parameterises the simulated chip. Cfg.Cores must be >= 1.
	Cfg machine.Config
}

// NewMachine returns a machine backend with the paper-calibrated default
// configuration over the given core count.
func NewMachine(cores int) *Machine {
	return &Machine{Cfg: machine.DefaultConfig(cores)}
}

// Name implements Backend.
func (m *Machine) Name() string { return fmt.Sprintf("machine(%d cores)", m.Cfg.Cores) }

// Mode implements Backend: the machine executes fork programs only.
func (m *Machine) Mode() minic.Mode { return minic.ModeFork }

// SupportsTrace implements Backend: the machine reports stage timings, not
// dependence traces.
func (m *Machine) SupportsTrace() bool { return false }

// Run implements Backend.
func (m *Machine) Run(prog *isa.Program, in Inputs, captureTrace bool) (*Result, error) {
	sim, err := machine.New(prog, m.Cfg)
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
		Backend:      m.Name(),
		RAX:          r.RAX,
		Instructions: r.Instructions,
		Cycles:       r.Cycles,
		Mem:          sim.DMH(),
		Machine:      r,
	}, nil
}

// CrossValidate runs prog with the same inputs on both backends and checks
// that they agree on the final rax and on every word of the data segment
// (which holds all global arrays of mini-C programs). It returns the two
// results for further inspection.
func CrossValidate(prog *isa.Program, in Inputs, a, b Backend) (*Result, *Result, error) {
	ra, err := a.Run(prog, in, false)
	if err != nil {
		return nil, nil, fmt.Errorf("backend %s: %w", a.Name(), err)
	}
	rb, err := b.Run(prog, in, false)
	if err != nil {
		return ra, nil, fmt.Errorf("backend %s: %w", b.Name(), err)
	}
	if ra.RAX != rb.RAX {
		return ra, rb, fmt.Errorf("backend mismatch: %s rax=%d, %s rax=%d",
			a.Name(), ra.RAX, b.Name(), rb.RAX)
	}
	for off := uint64(0); off < uint64(len(prog.Data)); off += 8 {
		addr := isa.DataBase + off
		va, vb := ra.Mem.ReadU64(addr), rb.Mem.ReadU64(addr)
		if va != vb {
			return ra, rb, fmt.Errorf("backend mismatch at data[%#x]: %s=%d, %s=%d",
				addr, a.Name(), va, b.Name(), vb)
		}
	}
	return ra, rb, nil
}
