package backend

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/trace"
)

// sumSrc sums an injected array; the expected result depends entirely on the
// injected values, which exercises the inject path on both substrates.
const sumSrc = `
unsigned long t[16];
unsigned long n = 16;
unsigned long sum(unsigned long *p, unsigned long k) {
    if (k == 1) return p[0];
    if (k == 2) return p[0] + p[1];
    return sum(p, k/2) + sum(&p[k/2], k - k/2);
}
unsigned long main(void) { return sum(t, n); }
`

func sumInputs() (Inputs, uint64) {
	words := make([]uint64, 16)
	var want uint64
	for i := range words {
		words[i] = uint64(i*i + 3)
		want += words[i]
	}
	return Inputs{"t": words}, want
}

func TestEmulatorRunWithInputs(t *testing.T) {
	prog, err := minic.Compile(sumSrc, minic.ModeCall)
	if err != nil {
		t.Fatal(err)
	}
	in, want := sumInputs()
	e := NewEmulator()
	r, err := e.Run(prog, in, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.RAX != want {
		t.Errorf("rax = %d, want %d", r.RAX, want)
	}
	if r.Trace == nil || r.Trace.Len() == 0 {
		t.Error("no trace captured")
	}
	if int64(r.Trace.Len()) != r.Instructions {
		t.Errorf("trace length %d != instructions %d", r.Trace.Len(), r.Instructions)
	}
	if r.Cycles != r.Instructions {
		t.Errorf("emulator cycles %d != instructions %d", r.Cycles, r.Instructions)
	}
}

// TestFootprintsUnderConcurrentFirstUse: goroutines that share a fresh
// program, as the sweep engine's front-end memo shares one, and all make its
// first use together build its footprint table once — every one sees the same
// backing array — and stream the same records from it.
func TestFootprintsUnderConcurrentFirstUse(t *testing.T) {
	prog, err := minic.Compile(sumSrc, minic.ModeCall)
	if err != nil {
		t.Fatal(err)
	}
	in, want := sumInputs()
	const workers = 8
	var (
		rows    [workers]*isa.Footprint
		records [workers][]trace.Record
		errs    [workers]error
		start   = make(chan struct{})
		wg      sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rows[w] = unsafe.SliceData(prog.Footprints())
			var res *Result
			res, errs[w] = NewEmulator().Stream(prog, in, func(rs []trace.Record) { records[w] = append(records[w], rs...) })
			if errs[w] == nil && res.RAX != want {
				errs[w] = fmt.Errorf("rax = %d, want %d", res.RAX, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if rows[w] == nil || rows[w] != rows[0] {
			t.Errorf("worker %d read the table at %p, worker 0 at %p", w, rows[w], rows[0])
		}
		if len(records[w]) == 0 || !slices.Equal(records[w], records[0]) {
			t.Errorf("worker %d streamed %d records that differ from worker 0's %d", w, len(records[w]), len(records[0]))
		}
	}
}

func TestMachineRunWithInputs(t *testing.T) {
	prog, err := minic.Compile(sumSrc, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in, want := sumInputs()
	r, err := RunMachine(prog, in, machine.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.RAX != want {
		t.Errorf("rax = %d, want %d", r.RAX, want)
	}
	if r.Machine == nil {
		t.Error("machine result missing")
	}
	if r.Cycles <= 0 {
		t.Errorf("cycles = %d", r.Cycles)
	}
}

func TestCrossValidateAgrees(t *testing.T) {
	prog, err := minic.Compile(sumSrc, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := sumInputs()
	ra, rb, err := CrossValidate(prog, in, machine.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if ra.RAX != rb.RAX {
		t.Errorf("rax disagree: %d vs %d", ra.RAX, rb.RAX)
	}
}

// TestCrossValidateDetectsMemoryDivergence uses a program that stores into
// its data segment, so the memory sweep has something real to compare.
func TestCrossValidateMemorySweep(t *testing.T) {
	src := `
unsigned long out[8];
unsigned long main(void) {
    for (unsigned long i = 0; i < 8; i = i + 1) out[i] = i * 7 + 1;
    return out[7];
}
`
	prog, err := minic.Compile(src, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	ra, _, err := CrossValidate(prog, nil, machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := prog.DataAddr("out")
	if !ok {
		t.Fatal("no out symbol")
	}
	for i := uint64(0); i < 8; i++ {
		if got := ra.Mem.ReadU64(addr + 8*i); got != i*7+1 {
			t.Errorf("out[%d] = %d, want %d", i, got, i*7+1)
		}
	}
}

// TestSameStateNamesTheDifference: the one comparison of two runs' final
// states sees a doctored data word and a doctored rax, and names each in the
// words CrossValidate reports.
func TestSameStateNamesTheDifference(t *testing.T) {
	prog, err := minic.Compile(`
unsigned long out[8];
unsigned long main(void) {
    for (unsigned long i = 0; i < 8; i = i + 1) out[i] = i * 7 + 1;
    return out[7];
}
`, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	emulator, mach, err := CrossValidate(prog, nil, machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := prog.DataAddr("out")
	mach.Mem.WriteU64(addr+24, 23)
	want := fmt.Sprintf("mismatch at data[%#x]: emulator=22, machine (2 cores)=23", addr+24)
	if err := SameState(prog, emulator, mach, "machine (2 cores)"); err == nil || err.Error() != want {
		t.Errorf("doctored data word: %v, want %q", err, want)
	}
	mach.Mem.WriteU64(addr+24, 22)
	mach.RAX++
	want = "mismatch: emulator rax=50, machine (2 cores) rax=51"
	if err := SameState(prog, emulator, mach, "machine (2 cores)"); err == nil || err.Error() != want {
		t.Errorf("doctored rax: %v, want %q", err, want)
	}
}

func TestInjectUnknownSymbol(t *testing.T) {
	prog, err := minic.Compile(`long main(void) { return 0; }`, minic.ModeCall)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEmulator().Run(prog, Inputs{"nosuch": {1}}, false)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("expected unknown-symbol error, got %v", err)
	}
}

// TestMachineRejectsCallMode: a call-mode program must be refused by
// RunMachine, mirroring the simulator's fork-only contract.
func TestMachineRejectsCallMode(t *testing.T) {
	prog, err := minic.Compile(`long f(void) { return 1; } long main(void) { return f(); }`, minic.ModeCall)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMachine(prog, nil, machine.DefaultConfig(2)); err == nil {
		t.Error("RunMachine accepted a call/ret program")
	}
}

// TestDataSegmentConstant sanity-checks the layout assumption CrossValidate
// relies on: global arrays live inside [DataBase, DataBase+len(Data)).
func TestDataSegmentCoversGlobals(t *testing.T) {
	prog, err := minic.Compile(sumSrc, minic.ModeCall)
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := prog.DataAddr("t")
	if !ok {
		t.Fatal("no t symbol")
	}
	if addr < isa.DataBase || addr+16*8 > isa.DataBase+uint64(len(prog.Data)) {
		t.Errorf("t at %#x not inside data segment [%#x, %#x)", addr, isa.DataBase, isa.DataBase+uint64(len(prog.Data)))
	}
}
