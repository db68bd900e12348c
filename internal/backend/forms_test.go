package backend_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/backend"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/trace"
)

// formListing wraps one instruction in a fork program: the forked section sets
// up every register and the flags the form may read, pushes a word for a pop
// to take, runs the form at label "form", and then stores what it may have
// changed — rbx, rdx, rsp, the top of the stack and three flag conditions —
// into the data segment, which the runs compare together with rax.
func formListing(form string) string {
	return `_start: fork f
        hlt
f:      movq $21, %rax
        movq $3, %rbx
        movq $0, %rdx
        cmpq $4, %rbx
        pushq $5
form:   ` + form + `
        movq %rbx, out
        movq %rdx, out+8
        movq %rsp, out+16
        movq 0(%rsp), %rcx
        movq %rcx, out+24
        sete %rcx
        movq %rcx, out+32
        setl %rcx
        movq %rcx, out+40
        setb %rcx
        movq %rcx, out+48
        endfork
.data
v:      .quad 7
out:    .quad 0, 0, 0, 0, 0, 0, 0
`
}

// probeForms are the forms on which the emulator and the machine once
// disagreed, or on which the footprint misnamed an access (and two that
// always agreed). Those the assembler now refuses stay here: they seed the
// fuzz target, and the table shows what became of each.
var probeForms = []string{
	"divq v", "divq $3", "imulq %rax, v", "pushq v", "popq v", "leaq %rbx, %rax",
	"shlq $3, v", "sarq $1, v", "setne v", "negq v", "incq v", "imulq v, %rax", "incq $5",
}

// everyForm returns every opcode with every register, immediate and memory
// operand combination, the probe forms, and a divide by zero. The memory
// operand reaches v through an index, so the address is disp+index·scale.
func everyForm() []string {
	const mem = "v-24(,%rbx,8)"
	var forms []string
	for _, mn := range []string{"movq", "leaq", "addq", "subq", "andq", "orq", "xorq", "imulq",
		"shlq", "shrq", "sarq", "cmpq", "testq"} {
		for _, src := range []string{"%rbx", "$2", mem} {
			for _, dst := range []string{"%rax", "$2", mem} {
				forms = append(forms, mn+" "+src+", "+dst)
			}
		}
	}
	for _, mn := range []string{"negq", "notq", "incq", "decq", "divq", "idivq", "pushq", "popq", "setne"} {
		for _, o := range []string{"%rax", "$2", mem} {
			forms = append(forms, mn+" "+o)
		}
	}
	forms = append(forms, "cqto", "nop", "divq %rdx")
	return append(forms, probeForms...)
}

// runEmulator runs prog on the emulator for at most maxSteps instructions and
// returns what the run left behind, with the error that stopped it if one
// did. It also reports whether the run is one the machine models: it stopped
// at a hlt outside every fork (a forked section ends in endfork), and every
// load and store was an aligned word (the machine renames memory by word
// address).
func runEmulator(prog *isa.Program, maxSteps int64) (*backend.Result, bool, error) {
	cpu := emu.New(prog)
	cpu.MaxSteps = maxSteps
	var last trace.Record
	aligned := true
	check := func(recs []trace.Record) {
		for i := range recs {
			r := &recs[i]
			aligned = aligned && (!r.HasLoad || r.Load%8 == 0) && (!r.HasStore || r.Store%8 == 0)
			last = *r
		}
	}
	cpu.Trace.Records = make([]trace.Record, 256)
	cpu.TraceHook = func(b *trace.Buffer) {
		check(b.Records[:b.N])
		b.N = 0
	}
	_, err := cpu.Run()
	check(cpu.Trace.Records[:cpu.Trace.N])
	return &backend.Result{RAX: cpu.Result(), Mem: cpu.Mem}, aligned && last.Op == isa.HLT && last.CallLevel == 0, err
}

// machinesAgree runs prog on the dense and the idle-skip machine cfg
// describes, and returns an error naming the first that faults where the
// emulator did not or the other way round (wantErr is the emulator's fault),
// or whose final state differs from want, the emulator's (backend.SameState).
func machinesAgree(prog *isa.Program, want *backend.Result, wantErr error, cfg machine.Config) error {
	for _, dense := range []bool{true, false} {
		cfg.Dense = dense
		got, err := backend.RunMachine(prog, nil, cfg)
		switch {
		case (err != nil) != (wantErr != nil):
			return fmt.Errorf("dense=%v machine fault: %v; emulator fault: %v", dense, err, wantErr)
		case err == nil:
			if err := backend.SameState(prog, want, got, fmt.Sprintf("dense=%v machine", dense)); err != nil {
				return err
			}
		}
	}
	return nil
}

// execAccesses reports which memory accesses isa.Exec makes for in, as seen
// from outside: it loads if what it computes depends on the loaded word, and
// stores if the word it returns is not the loaded one. Three loaded words
// (equal to an immediate, a power of two, and negative) tell every form's
// dependence apart from a coincidence.
func execAccesses(in *isa.Instruction) (load, store bool, err error) {
	var regs [isa.NumRegs]uint64
	regs[isa.RAX], regs[isa.RBX], regs[isa.RSP] = 21, 3, isa.StackTop-8
	regs[isa.Flags] = uint64(isa.FlagS | isa.FlagC)
	var after [3][isa.NumRegs]uint64
	var stored [3]uint64
	for i, loaded := range []uint64{2, 4, 1<<63 | 5} {
		after[i] = regs
		if stored[i], err = isa.Exec(in, &after[i], loaded); err != nil {
			return false, false, err
		}
		store = store || stored[i] != loaded
	}
	for i := 1; i < 3; i++ {
		load = load || after[i] != after[0] || store && stored[i] != stored[0]
	}
	return load, store, nil
}

// TestEveryFormAgrees runs every operand form the assembler accepts on the
// emulator and on the dense and idle-skip machines, which must leave the same
// rax and data segment or all fault; and checks that the instruction's
// footprint names exactly the loads and stores isa.Exec makes.
func TestEveryFormAgrees(t *testing.T) {
	accepted := 0
	for _, form := range everyForm() {
		t.Run(strings.ReplaceAll(form, " ", "_"), func(t *testing.T) {
			prog, err := asm.Assemble(formListing(form))
			if err != nil {
				t.Skipf("refused: %v", err)
			}
			accepted++
			want, _, wantErr := runEmulator(prog, 1000)
			cfg := machine.DefaultConfig(2)
			cfg.MaxCycles = 10000
			if err := machinesAgree(prog, want, wantErr, cfg); err != nil {
				t.Error(err)
			}
			i := prog.Labels["form"]
			load, store, err := execAccesses(&prog.Text[i])
			if err != nil {
				return // a faulting form makes no access
			}
			if f := prog.Footprints()[i]; f.HasLoad != load || f.HasStore != store {
				t.Errorf("footprint loads %v stores %v; isa.Exec loads %v stores %v",
					f.HasLoad, f.HasStore, load, store)
			}
		})
	}
	if accepted < 80 {
		t.Errorf("only %d forms assembled", accepted)
	}
}
