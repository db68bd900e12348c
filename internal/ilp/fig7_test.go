package ilp_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/fuzzgen"
	"repro/internal/ilp"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
	"repro/internal/trace"
)

// The golden's models: the two Fig. 7 plots, and the zero Model — no
// renaming, control dependences — which is the only caller of the register
// WAR/WAW and last-branch arms, and so of the analyser's recording of
// register reads and branches.
var goldenModels = []struct {
	name  string
	model ilp.Model
}{
	{"sequential", ilp.Sequential()},
	{"parallel", ilp.Parallel()},
	{"zero", ilp.Model{}},
}

// goldenRow is the reproduced part of an ilp.Result (ILP is their quotient).
type goldenRow struct {
	Instructions int   `json:"instructions"`
	Cycles       int64 `json:"cycles"`
}

func rowOf(r ilp.Result) goldenRow {
	return goldenRow{r.Instructions, r.Cycles}
}

type goldenKernel struct {
	ID     int                  `json:"id"`
	Name   string               `json:"name"`
	Models map[string]goldenRow `json:"models"`
}

type goldenFile struct {
	N       int            `json:"n"`
	Seed    uint64         `json:"seed"`
	Kernels []goldenKernel `json:"kernels"`
}

const goldenPath = "testdata/fig7-n64-seed1.json"

// callPoint compiles a kernel in call mode and generates its inputs.
func callPoint(t *testing.T, k *pbbs.Kernel, n int, seed uint64) (*isa.Program, pbbs.Inputs) {
	t.Helper()
	prog, err := k.Build(n, minic.ModeCall)
	if err != nil {
		t.Fatal(err)
	}
	return prog, k.Gen(k.ClampN(n), seed)
}

func storedTrace(t *testing.T, prog *isa.Program, in pbbs.Inputs) *trace.Trace {
	t.Helper()
	res, err := backend.NewEmulator().Run(prog, in, true)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// TestFig7Golden pins Analyze on all eleven kernels at n=64, seed 1, to the
// values the code before the incremental analyser produced (the file was
// written by that code): whatever the analyser keeps its state in, these do
// not move.
func TestFig7Golden(t *testing.T) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Kernels) != len(pbbs.Kernels()) {
		t.Fatalf("golden has %d kernels, the registry %d", len(want.Kernels), len(pbbs.Kernels()))
	}
	for _, wk := range want.Kernels {
		k, err := pbbs.ByID(wk.ID)
		if err != nil {
			t.Fatal(err)
		}
		prog, in := callPoint(t, k, want.N, want.Seed)
		tr := storedTrace(t, prog, in)
		for _, gm := range goldenModels {
			if got := rowOf(ilp.Analyze(tr, gm.model)); !reflect.DeepEqual(got, wk.Models[gm.name]) {
				t.Errorf("%s under %s:\n got %+v\nwant %+v", k.Name, gm.name, got, wk.Models[gm.name])
			}
		}
	}
}

// streamed runs prog with one Analyzer per golden model stepped from the
// emulator's hook, storing no trace.
func streamed(t *testing.T, prog *isa.Program, in pbbs.Inputs) []ilp.Result {
	t.Helper()
	as := make([]*ilp.Analyzer, len(goldenModels))
	for i, gm := range goldenModels {
		as[i] = ilp.NewAnalyzer(gm.model)
	}
	_, err := backend.NewEmulator().Stream(prog, in, func(rs []trace.Record) {
		for i := range rs {
			for _, a := range as {
				a.Step(&rs[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]ilp.Result, len(as))
	for i, a := range as {
		out[i] = a.Result()
	}
	return out
}

// TestStreamedEqualsStored: analysers stepped while the emulator runs give
// exactly the results Analyze gives over the trace the emulator stores —
// every kernel in call mode, and the paper's sum in both conventions.
func TestStreamedEqualsStored(t *testing.T) {
	type point struct {
		name string
		prog *isa.Program
		in   pbbs.Inputs
	}
	var points []point
	for _, k := range pbbs.Kernels() {
		prog, in := callPoint(t, k, 64, 1)
		points = append(points, point{k.Name, prog, in})
	}
	for name, build := range map[string]func([]uint64) (*isa.Program, error){
		"progs/sum-call": progs.BuildSumCall,
		"progs/sum-fork": progs.BuildSumFork,
	} {
		prog, err := build(progs.Vector(160))
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, point{name, prog, nil})
	}
	for _, p := range points {
		tr := storedTrace(t, p.prog, p.in)
		for i, got := range streamed(t, p.prog, p.in) {
			if want := ilp.Analyze(tr, goldenModels[i].model); !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %s:\nstreamed %+v\n  stored %+v", p.name, goldenModels[i].name, got, want)
			}
		}
	}
}

// overlapped is the address the hand-made overlapping trace starts at.
const overlapped = isa.DataBase + 64

// overlappingTrace is nine stores and loads of the words at a, a+4 and a+8
// (a = overlapped), each moved to remap[addr] where remap has it.
func overlappingTrace(remap map[uint64]uint64) *trace.Trace {
	const a = overlapped
	accesses := []struct {
		store bool
		addr  uint64
	}{
		{true, a},      // 0: cycle 1
		{true, a + 4},  // 1: cycle 1 — cycle 2 if it shared a's row
		{true, a + 8},  // 2: cycle 1
		{false, a + 4}, // 3: after 1 — cycle 2
		{false, a},     // 4: after 0 — cycle 2
		{true, a + 4},  // 5: after load 3 (WAR) — cycle 3
		{true, a},      // 6: after load 4 (WAR) — cycle 3
		{false, a + 8}, // 7: after 2 — cycle 2
		{false, a + 4}, // 8: after 5 — cycle 4
	}
	tr := &trace.Trace{}
	for _, ac := range accesses {
		addr := ac.addr
		if to, ok := remap[addr]; ok {
			addr = to
		}
		if ac.store {
			tr.Records = append(tr.Records, trace.Record{Op: isa.MOV, Store: addr, HasStore: true})
		} else {
			tr.Records = append(tr.Records, trace.Record{Op: isa.MOV, Load: addr, HasLoad: true})
		}
	}
	return tr
}

// TestUnalignedAddressesKeepTheirOwnEntry: an address is a location of its
// own whatever it overlaps, so a+4 neither aliases a nor a+8 — the schedule is
// the one the same accesses get on three far-apart aligned words.
func TestUnalignedAddressesKeepTheirOwnEntry(t *testing.T) {
	const a = overlapped
	tr := overlappingTrace(nil)
	apart := overlappingTrace(map[uint64]uint64{a: 0x10000, a + 4: 0x20000, a + 8: 0x30000})
	for _, gm := range goldenModels {
		if got, want := ilp.Analyze(tr, gm.model), ilp.Analyze(apart, gm.model); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\noverlapping %+v\n far apart %+v", gm.name, got, want)
		}
	}
	if seq := ilp.Analyze(tr, ilp.Sequential()); seq.Cycles != 4 {
		t.Errorf("sequential: %d cycles, want 4", seq.Cycles)
	}
	if par := ilp.Analyze(tr, ilp.Parallel()); par.Cycles != 2 {
		t.Errorf("parallel: %d cycles, want 2 (memory renamed: five stores, then four loads)", par.Cycles)
	}
}

// TestFig7MatchesTwoAnalyzers: the one-pass Fig7 gives exactly the Results
// of one reference Analyzer per model over the same records, however the
// trace is cut into the slices it steps. Fig7 is fed as Fig. 7 feeds it, from
// Stream's second goroutine, and over the stored trace in slices of 1, 3 and
// 2 048 records and whole; the references read the stored trace. The points:
// every kernel at the golden's n and seed, the paper's sum in both
// conventions, forty generated programs (alternately compiled in call and
// fork mode), and the overlapping-address trace, which has no program.
func TestFig7MatchesTwoAnalyzers(t *testing.T) {
	type point struct {
		name string
		prog *isa.Program // nil for a hand-made trace
		in   pbbs.Inputs
		tr   *trace.Trace
	}
	var points []point
	for _, k := range pbbs.Kernels() {
		prog, in := callPoint(t, k, 64, 1)
		points = append(points, point{name: k.Name, prog: prog, in: in})
	}
	for name, build := range map[string]func([]uint64) (*isa.Program, error){
		"progs/sum-call": progs.BuildSumCall,
		"progs/sum-fork": progs.BuildSumFork,
	} {
		prog, err := build(progs.Vector(160))
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, point{name: name, prog: prog})
	}
	for seed := uint64(1); seed <= 40; seed++ {
		mode := []minic.Mode{minic.ModeCall, minic.ModeFork}[seed%2]
		prog, err := minic.Compile(fuzzgen.Generate(seed).Source, mode)
		if err != nil {
			t.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		points = append(points, point{name: fmt.Sprintf("fuzzgen seed %d", seed), prog: prog})
	}
	points = append(points, point{name: "overlapping addresses", tr: overlappingTrace(nil)})

	type fed struct {
		how string
		a   *ilp.Fig7
	}
	for _, p := range points {
		var feds []fed
		if p.prog != nil {
			a := ilp.NewFig7()
			if _, err := backend.NewEmulator().Stream(p.prog, p.in, a.Step); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			feds = append(feds, fed{"streamed", a})
			p.tr = storedTrace(t, p.prog, p.in)
		}
		for _, size := range []int{1, 3, 2048, len(p.tr.Records)} {
			a := ilp.NewFig7()
			for rs := p.tr.Records; len(rs) > 0; rs = rs[min(size, len(rs)):] {
				a.Step(rs[:min(size, len(rs))])
			}
			feds = append(feds, fed{fmt.Sprintf("in slices of %d", size), a})
		}
		for _, f := range feds {
			seq, par := f.a.Results()
			for _, c := range []struct{ got, want ilp.Result }{
				{seq, ilp.Analyze(p.tr, ilp.Sequential())},
				{par, ilp.Analyze(p.tr, ilp.Parallel())},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s %s under %s:\n    Fig7 %+v\nAnalyzer %+v", p.name, f.how, c.want.Model.Name, c.got, c.want)
				}
			}
		}
	}
}

// seqFlatBand bounds, per kernel, the largest sequential ILP over the smallest
// across the sizes TestParallelNeverSlowerThanSequential steps. The widest
// measured is quickHull's 3.02 (n=64) over 2.50 (n=256), 1.21; every other
// kernel is within 1.13. The parallel ILP of the same kernels moves by far
// more over these sizes (quickHull 190 → 286 from n=32 to 128).
const seqFlatBand = 1.25

// TestParallelNeverSlowerThanSequential: the parallel model's dependence edges
// are a subset of the sequential model's — it drops rsp RAW and memory
// WAR/WAW and keeps the rest — so no instruction executes later under it.
// Per kernel and size, its schedule is no longer and its ILP no lower. The
// same runs check the paper's other Fig. 7 claim that holds here: the
// sequential ILP is flat in n, because the stack and the memory false
// dependences serialise what a larger dataset would offer; per kernel its
// max/min stays within seqFlatBand. Parallel ILP growing with n is not
// checked: three kernels break it (RESULTS.md, PR 28).
func TestParallelNeverSlowerThanSequential(t *testing.T) {
	for _, k := range pbbs.Kernels() {
		lo, hi := math.Inf(1), 0.0
		for _, n := range []int{32, 64, 128, 256} {
			seq, par := ilp.NewAnalyzer(ilp.Sequential()), ilp.NewAnalyzer(ilp.Parallel())
			if _, err := k.Run(n, 1, func(rs []trace.Record) {
				for i := range rs {
					seq.Step(&rs[i])
					par.Step(&rs[i])
				}
			}); err != nil {
				t.Fatal(err)
			}
			s, p := seq.Result(), par.Result()
			if p.Cycles > s.Cycles || p.ILP < s.ILP {
				t.Errorf("%s n=%d: parallel %d cycles, ILP %.2f; sequential %d cycles, ILP %.2f",
					k.Name, n, p.Cycles, p.ILP, s.Cycles, s.ILP)
			}
			lo, hi = min(lo, s.ILP), max(hi, s.ILP)
		}
		if hi > seqFlatBand*lo {
			t.Errorf("%s: sequential ILP %.2f..%.2f over n = 32..256, max/min %.3f > %.2f: not flat in n",
				k.Name, lo, hi, hi/lo, seqFlatBand)
		}
	}
}
