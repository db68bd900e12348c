package ilp_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/ilp"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
	"repro/internal/trace"
)

// The golden's models: the two Fig. 7 plots, and the zero Model — no
// renaming, control dependences — which is the only caller of the register
// WAR/WAW and last-branch arms. (The file also holds rows for a third model
// whose flags were Sequential()'s; they equal the sequential rows.)
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
	Instructions   int                        `json:"instructions"`
	Cycles         int64                      `json:"cycles"`
	MaxParallelism int64                      `json:"maxParallelism"`
	DistanceHist   [ilp.DistanceBuckets]int64 `json:"distanceHist"`
}

func rowOf(r ilp.Result) goldenRow {
	return goldenRow{r.Instructions, r.Cycles, r.MaxParallelism, r.DistanceHist}
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
	_, err := backend.NewEmulator().Stream(prog, in, func(r *trace.Record) {
		for _, a := range as {
			a.Step(r)
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

// TestUnalignedAddressesKeepTheirOwnEntry: an address is a location of its
// own whatever it overlaps, so a+4 neither aliases a nor a+8 — the schedule is
// the one the same accesses get on three far-apart aligned words.
func TestUnalignedAddressesKeepTheirOwnEntry(t *testing.T) {
	const a = isa.DataBase + 64
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
	build := func(remap map[uint64]uint64) *trace.Trace {
		tr := &trace.Trace{}
		for _, ac := range accesses {
			addr := ac.addr
			if to, ok := remap[addr]; ok {
				addr = to
			}
			if ac.store {
				tr.Append(trace.Record{Op: isa.MOV, Store: addr, HasStore: true})
			} else {
				tr.Append(trace.Record{Op: isa.MOV, Load: addr, HasLoad: true})
			}
		}
		return tr
	}
	tr := build(nil)
	apart := build(map[uint64]uint64{a: 0x10000, a + 4: 0x20000, a + 8: 0x30000})
	for _, gm := range goldenModels {
		if got, want := ilp.Analyze(tr, gm.model), ilp.Analyze(apart, gm.model); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\noverlapping %+v\n far apart %+v", gm.name, got, want)
		}
	}
	seq := ilp.Analyze(tr, ilp.Sequential())
	wantHist := [ilp.DistanceBuckets]int64{1: 2, 2: 2} // 3←1, 8←5; 4←0, 7←2; the WAR-bound stores count nowhere
	if seq.Cycles != 4 || seq.MaxParallelism != 3 || seq.DistanceHist != wantHist {
		t.Errorf("sequential: %d cycles, %d at once, distances %v; want 4, 3, %v",
			seq.Cycles, seq.MaxParallelism, seq.DistanceHist, wantHist)
	}
	if par := ilp.Analyze(tr, ilp.Parallel()); par.Cycles != 2 {
		t.Errorf("parallel: %d cycles, want 2 (memory renamed: five stores, then four loads)", par.Cycles)
	}
}

// TestParallelNeverSlowerThanSequential: the parallel model's dependence edges
// are a subset of the sequential model's — it drops rsp RAW and memory
// WAR/WAW and keeps the rest — so no instruction executes later under it.
// Per kernel and size, its schedule is no longer and its ILP no lower. This is
// the one relation Fig. 7 guarantees; ILP growing with n is not one of them.
func TestParallelNeverSlowerThanSequential(t *testing.T) {
	for _, k := range pbbs.Kernels() {
		for _, n := range []int{32, 64, 128, 256} {
			seq, par := ilp.NewAnalyzer(ilp.Sequential()), ilp.NewAnalyzer(ilp.Parallel())
			if _, err := k.Run(n, 1, func(r *trace.Record) {
				seq.Step(r)
				par.Step(r)
			}); err != nil {
				t.Fatal(err)
			}
			s, p := seq.Result(), par.Result()
			if p.Cycles > s.Cycles || p.ILP < s.ILP {
				t.Errorf("%s n=%d: parallel %d cycles, ILP %.2f; sequential %d cycles, ILP %.2f",
					k.Name, n, p.Cycles, p.ILP, s.Cycles, s.ILP)
			}
		}
	}
}
