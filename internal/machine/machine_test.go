package machine

import (
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/progs"
	"repro/internal/trace"
)

// runBoth runs prog on the emulator (oracle) and on the machine with the
// given core count, and checks result equivalence.
func runBoth(t *testing.T, prog *isa.Program, cores int) (*emu.CPU, *Result) {
	t.Helper()
	cpu, err := emu.RunProgram(prog)
	if err != nil {
		t.Fatalf("emulator: %v", err)
	}
	r, err := RunProgram(prog, cores)
	if err != nil {
		t.Fatalf("machine (%d cores): %v", cores, err)
	}
	if r.RAX != cpu.Result() {
		t.Fatalf("machine rax = %d, emulator rax = %d", r.RAX, cpu.Result())
	}
	return cpu, r
}

func TestSumCorrectAcrossCoresAndSizes(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 5, 8, 16} {
		for _, size := range []int{1, 2, 3, 5, 10, 20, 40} {
			p, err := progs.BuildSumFork(progs.Vector(size))
			if err != nil {
				t.Fatal(err)
			}
			_, r := runBoth(t, p, cores)
			if r.RAX != progs.VectorSum(size) {
				t.Errorf("cores=%d size=%d: rax = %d, want %d", cores, size, r.RAX, progs.VectorSum(size))
			}
		}
	}
}

// TestSumSections reproduces Fig. 4: sum(t,5) runs as 5 sections (plus the
// driver's continuation section holding hlt).
func TestSumSections(t *testing.T) {
	for n := 0; n <= 4; n++ {
		p, err := progs.BuildSumFork(progs.Vector(5 << uint(n)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunProgram(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := analytic.Sections(n) + 1 // + the driver's hlt continuation
		if int64(len(r.Sections)) != want {
			t.Errorf("n=%d: %d sections, want %d", n, len(r.Sections), want)
		}
	}
}

// TestSumInstructionCount: the machine fetches exactly the paper's dynamic
// instruction count (45·2ⁿ + 14·(2ⁿ−1) plus the 4-instruction driver).
func TestSumInstructionCount(t *testing.T) {
	for n := 0; n <= 4; n++ {
		p, err := progs.BuildSumFork(progs.Vector(5 << uint(n)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunProgram(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := analytic.Instructions(n) + 4; r.Instructions != want {
			t.Errorf("n=%d: %d instructions, want %d", n, r.Instructions, want)
		}
	}
}

// TestSumLongestSection reproduces the Fig. 6 observation: for sum(t,5) the
// longest sum section has 16 instructions.
func TestSumLongestSection(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunProgram(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, s := range r.Sections {
		if s.Instructions > longest {
			longest = s.Instructions
		}
	}
	if longest != 16 {
		t.Errorf("longest section = %d instructions, want 16 (paper Fig. 6 section 2)", longest)
	}
}

func TestFibForkOnMachine(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 8, 10} {
		p, err := progs.BuildFibFork(n)
		if err != nil {
			t.Fatal(err)
		}
		_, r := runBoth(t, p, 8)
		if r.RAX != progs.Fib(n) {
			t.Errorf("fib(%d) = %d, want %d", n, r.RAX, progs.Fib(n))
		}
	}
}

// TestMaxForkOnMachine exercises the fetch-stall path: vmax's conditional
// branches depend on memory loads, so the fetch stage cannot compute them
// and must wait for the execute stage.
func TestMaxForkOnMachine(t *testing.T) {
	vecs := [][]uint64{
		{7},
		{7, 3},
		{3, 7},
		{5, 1, 9, 2, 8},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
	}
	for _, cores := range []int{2, 5, 8} {
		for _, v := range vecs {
			p, err := progs.BuildMaxFork(v)
			if err != nil {
				t.Fatal(err)
			}
			_, r := runBoth(t, p, cores)
			want := uint64(0)
			for _, x := range v {
				if x > want {
					want = x
				}
			}
			if r.RAX != want {
				t.Errorf("cores=%d max(%v) = %d, want %d", cores, v, r.RAX, want)
			}
		}
	}
}

// TestMemoryStateMatchesEmulator: after the run, the machine's committed DMH
// agrees with the emulator's memory on every address the program wrote.
func TestMemoryStateMatchesEmulator(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(20))
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Data segment and the stack words used by the run.
	for off := uint64(0); off < uint64(len(p.Data)); off += 8 {
		a := isa.DataBase + off
		if got, want := m.DMH().ReadU64(a), cpu.Mem.ReadU64(a); got != want {
			t.Errorf("data[%#x] = %d, want %d", a, got, want)
		}
	}
	for a := isa.StackTop - 512; a < isa.StackTop; a += 8 {
		if got, want := m.DMH().ReadU64(a), cpu.Mem.ReadU64(a); got != want {
			t.Errorf("stack[%#x] = %d, want %d", a, got, want)
		}
	}
}

// TestCompareWithMemoryDoesNotStore: cmpq with a memory destination reads the
// word and writes only flags. The instruction is store-class (its memory
// operand is the destination), and while a section's dump walked its
// store-class instructions it committed such a compare's never-written value
// — zero — over the word. The dump now commits what the MAAT marks as stored.
func TestCompareWithMemoryDoesNotStore(t *testing.T) {
	p, err := asm.Assemble(`
_start: movq $t, %rdi
        cmpq $3, (%rdi)
        jne .x
        movq (%rdi), %rax
.x:     hlt
.data
t: .quad 3
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, dense := range []bool{false, true} {
		cfg := DefaultConfig(1)
		cfg.Dense = dense
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.DMH().ReadU64(isa.DataBase); r.RAX != 3 || got != 3 {
			t.Errorf("dense=%v: rax = %d, t = %d after the run, want 3 and 3", dense, r.RAX, got)
		}
	}
}

// TestFetchTimeScaling reproduces the Section 5 scaling shape: fetch time
// grows by a constant number of cycles per doubling (the paper's 12), so
// fetch IPC grows roughly linearly with the data size.
func TestFetchTimeScaling(t *testing.T) {
	var fetch []int64
	maxN := 5
	for n := 0; n <= maxN; n++ {
		p, err := progs.BuildSumFork(progs.Vector(5 << uint(n)))
		if err != nil {
			t.Fatal(err)
		}
		// Enough cores that section placement never throttles fetch.
		r, err := RunProgram(p, int(analytic.Sections(n))+1)
		if err != nil {
			t.Fatal(err)
		}
		fetch = append(fetch, r.FetchDone)
	}
	// The per-doubling increments must be (near-)constant, not
	// proportional: parallel fetch hides the doubling.
	var incs []int64
	for i := 1; i < len(fetch); i++ {
		incs = append(incs, fetch[i]-fetch[i-1])
	}
	for i := 1; i < len(incs); i++ {
		d := incs[i] - incs[i-1]
		if d < -4 || d > 4 {
			t.Errorf("fetch increments not near-constant: %v (times %v)", incs, fetch)
			break
		}
	}
	// Fetch IPC at n=5 far exceeds 1 (a sequential 1-wide fetcher).
	instr := analytic.Instructions(maxN) + 4
	ipc := float64(instr) / float64(fetch[maxN])
	if ipc < 4 {
		t.Errorf("fetch IPC at n=%d = %.1f, want >= 4", maxN, ipc)
	}
}

// TestSumPaperNumbers pins what the machine reproduces of the paper's §5,
// exactly: the n-th doubling step of the sum (5·2ⁿ elements) on a core per
// section plus one. Fetch time grows by 13 cycles a step (the paper's closed
// form says 12); retire time leaves 43+15n from n=3 on (ROADMAP item 1). The
// values were recorded before retired instructions left the machine and must
// not move with any change that is not a model change — under both schedulers,
// the dense one as far as it is affordable.
func TestSumPaperNumbers(t *testing.T) {
	for n, want := range []struct {
		instructions, fetchDone, retireDone, requestHops, nocMessages int64
	}{
		{49, 35, 51, 10, 26},
		{108, 48, 72, 44, 80},
		{226, 61, 99, 166, 242},
		{462, 74, 142, 621, 777},
		{934, 87, 195, 2181, 2497},
		{1878, 100, 277, 7590, 8226},
		{3766, 113, 425, 26616, 27892},
		{7542, 126, 709, 96986, 99542},
	} {
		p := mustSumFork(t, int(analytic.Elements(n)))
		for _, dense := range []bool{false, true} {
			if dense && n > 5 {
				continue
			}
			r := runSched(t, p, DefaultConfig(int(analytic.Sections(n))+1), dense)
			got := [5]int64{r.Instructions, r.FetchDone, r.RetireDone, r.RequestHops, r.NocMessages()}
			if got != [5]int64{want.instructions, want.fetchDone, want.retireDone, want.requestHops, want.nocMessages} {
				t.Errorf("n=%d dense=%v: instructions, fetch, retire, request hops, NoC messages = %v, want %+v", n, dense, got, want)
			}
		}
	}
}

// TestSingleCoreStillCorrect: with one core everything serialises through
// one pipeline and the suspension mechanism, but results are unchanged.
func TestSingleCoreStillCorrect(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(10))
	if err != nil {
		t.Fatal(err)
	}
	_, r := runBoth(t, p, 1)
	if r.RAX != progs.VectorSum(10) {
		t.Errorf("rax = %d", r.RAX)
	}
	if got := len(r.FetchedPerCore); got != 1 {
		t.Errorf("cores = %d, want 1", got)
	}
}

// TestMoreCoresNeverSlowerMuch: adding cores should not increase total
// cycles appreciably (scheduling noise aside) and should reduce them
// markedly from 1 core to plenty.
func TestMoreCoresNeverSlowerMuch(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(40))
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunProgram(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunProgram(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if many.Cycles >= one.Cycles {
		t.Errorf("64 cores (%d cycles) not faster than 1 core (%d cycles)", many.Cycles, one.Cycles)
	}
}

func TestShortcutDisabledStillCorrect(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(20))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(6)
	cfg.Shortcut = false
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.RAX != progs.VectorSum(20) {
		t.Errorf("rax = %d, want %d", r.RAX, progs.VectorSum(20))
	}
}

// TestShortcutReducesLatency: with the call-level shortcut the final
// continuation's stack read bypasses deeper sections, so the run with the
// shortcut is no slower than without (and typically faster).
func TestShortcutReducesLatency(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(40))
	if err != nil {
		t.Fatal(err)
	}
	on := DefaultConfig(12)
	off := DefaultConfig(12)
	off.Shortcut = false
	mon, err := New(p, on)
	if err != nil {
		t.Fatal(err)
	}
	ron, err := mon.Run()
	if err != nil {
		t.Fatal(err)
	}
	moff, err := New(p, off)
	if err != nil {
		t.Fatal(err)
	}
	roff, err := moff.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ron.Cycles > roff.Cycles {
		t.Errorf("shortcut run (%d cycles) slower than no-shortcut (%d cycles)", ron.Cycles, roff.Cycles)
	}
}

func TestTopologies(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(20))
	if err != nil {
		t.Fatal(err)
	}
	nets := []noc.Network{
		noc.NewCrossbar(8, 1),
		noc.NewCrossbar(8, 3),
		noc.NewRing(8, 1),
		noc.NewMesh(4, 2, 1),
	}
	var cycles []int64
	for _, n := range nets {
		cfg := DefaultConfig(8)
		cfg.Net = n
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		if r.RAX != progs.VectorSum(20) {
			t.Errorf("%s: rax = %d", n.Name(), r.RAX)
		}
		cycles = append(cycles, r.Cycles)
	}
	// Higher-latency crossbar cannot be faster than the 1-hop crossbar.
	if cycles[1] < cycles[0] {
		t.Errorf("crossbar hop=3 (%d) faster than hop=1 (%d)", cycles[1], cycles[0])
	}
}

func TestDeterminism(t *testing.T) {
	p, err := progs.BuildFibFork(9)
	if err != nil {
		t.Fatal(err)
	}
	a, b := runSched(t, p, DefaultConfig(6), false), runSched(t, p, DefaultConfig(6), false)
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.RAX != b.RAX {
		t.Errorf("non-deterministic: %v vs %v", a.Summary(), b.Summary())
	}
	if len(a.Timings) != len(b.Timings) {
		t.Fatalf("timing lengths differ")
	}
	for i := range a.Timings {
		if a.Timings[i] != b.Timings[i] {
			t.Fatalf("timing %d differs: %+v vs %+v", i, a.Timings[i], b.Timings[i])
		}
	}
}

func TestCallRetRejected(t *testing.T) {
	p, err := progs.BuildSumCall(progs.Vector(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgram(p, 4); err == nil {
		t.Error("machine accepted a call/ret program")
	}
}

func TestFig10TableRendering(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(5))
	if err != nil {
		t.Fatal(err)
	}
	r := runSched(t, p, DefaultConfig(5), false)
	tbl := r.Fig10Table(r.Timings)
	for _, want := range []string{"core 0 pipeline", "fd", "ret", "fork sum", "endfork", "movq (%rdi), %rax"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Fig10 table missing %q", want)
		}
	}
	// Every retired instruction has monotonically ordered stage cycles.
	for _, ti := range r.Timings {
		if ti.RR <= ti.FD {
			t.Errorf("%s: rr %d <= fd %d", ti.Label(), ti.RR, ti.FD)
		}
		if ti.EW <= ti.RR {
			t.Errorf("%s: ew %d <= rr %d", ti.Label(), ti.EW, ti.RR)
		}
		if ti.AR != 0 && ti.AR <= ti.EW {
			t.Errorf("%s: ar %d <= ew %d", ti.Label(), ti.AR, ti.EW)
		}
		if ti.MA != 0 && ti.MA <= ti.AR {
			t.Errorf("%s: ma %d <= ar %d", ti.Label(), ti.MA, ti.AR)
		}
		if ti.RET == 0 {
			t.Errorf("%s: never retired", ti.Label())
		}
	}
}

// TestSectionOrderMatchesTrace: concatenating the machine's sections in
// their final total order yields exactly the emulator's sequential trace.
func TestSectionOrderMatchesTrace(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(5))
	if err != nil {
		t.Fatal(err)
	}
	cpu := emu.New(p)
	var ips []int64
	cpu.TraceHook = func(r *trace.Record) { ips = append(ips, r.IP) }
	if _, err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	r := runSched(t, p, DefaultConfig(5), false)
	if int64(len(ips)) != r.Instructions {
		t.Fatalf("machine %d instructions, trace %d", r.Instructions, len(ips))
	}
	for i, ti := range r.Timings {
		if ti.IP != ips[i] {
			t.Fatalf("trace position %d: machine ip %d, emulator ip %d", i, ti.IP, ips[i])
		}
	}
}

// TestRequestsIssued: the run uses the distributed renaming machinery (rax
// across sections, stack words across sections).
func TestRequestsIssued(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunProgram(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.RegRequests == 0 {
		t.Error("no register renaming requests were issued")
	}
	if r.MemRequests == 0 {
		t.Error("no memory renaming requests were issued")
	}
}

// TestStallDetection: a program that loops forever trips the progress
// detector rather than hanging.
func TestStallDetection(t *testing.T) {
	p, err := asm.Assemble(`
_start: jmp _start
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 5000
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Error("infinite loop did not abort")
	}
}

func TestBadConfig(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, Config{Cores: 0}); err == nil {
		t.Error("accepted 0 cores")
	}
}

// TestMessageAccounting: every fork sends exactly one creation message, every
// issued request is eventually answered by exactly one response, and the DMH
// answers are a subset of the responses.
func TestMessageAccounting(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(40))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunProgram(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(r.Sections) - 1); r.CreateMessages != want {
		t.Errorf("CreateMessages = %d, want %d (sections minus the initial one)", r.CreateMessages, want)
	}
	if want := r.RegRequests + r.MemRequests; r.ResponseMessages != want {
		t.Errorf("ResponseMessages = %d, want %d (one per request)", r.ResponseMessages, want)
	}
	if r.DMHAnswers > r.ResponseMessages {
		t.Errorf("DMHAnswers = %d exceeds ResponseMessages = %d", r.DMHAnswers, r.ResponseMessages)
	}
	if got := r.NocMessages(); got != r.CreateMessages+r.RequestHops+r.ResponseMessages {
		t.Errorf("NocMessages() = %d, want the sum of its parts", got)
	}
	if r.NocMessages() == 0 {
		t.Error("NocMessages() = 0 for a forking program")
	}
}

// TestShortcutReducesHops: disabling the call-level shortcut makes memory
// requests search through deeper-level sections, so the no-shortcut run needs
// at least as many request hops.
func TestShortcutReducesHops(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(40))
	if err != nil {
		t.Fatal(err)
	}
	run := func(shortcut bool) *Result {
		cfg := DefaultConfig(12)
		cfg.Shortcut = shortcut
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	on, off := run(true), run(false)
	if on.RequestHops > off.RequestHops {
		t.Errorf("shortcut run made %d hops, no-shortcut made %d", on.RequestHops, off.RequestHops)
	}
}

// TestMaxSectionsPerCorePacks: with a packing cap, sections fill one core
// after another instead of spreading, and the result stays correct.
func TestMaxSectionsPerCorePacks(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(40))
	if err != nil {
		t.Fatal(err)
	}
	run := func(secCap int) *Result {
		cfg := DefaultConfig(8)
		cfg.MaxSectionsPerCore = secCap
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.RAX != progs.VectorSum(40) {
			t.Fatalf("cap=%d: rax = %d, want %d", secCap, r.RAX, progs.VectorSum(40))
		}
		return r
	}
	usedCores := func(r *Result) int {
		used := make(map[int]bool)
		for _, s := range r.Sections {
			used[s.Core] = true
		}
		return len(used)
	}
	spread, packed := run(0), run(100)
	if got, limit := usedCores(spread), usedCores(packed); got < limit {
		t.Errorf("spread run used %d cores, packed run used %d (packing should not use more)", got, limit)
	}
	if got := usedCores(packed); got != 1 {
		t.Errorf("cap=100 run used %d cores, want 1 (every section fits the first core)", got)
	}
}
