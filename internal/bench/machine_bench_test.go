package bench

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// BenchmarkMachineRun times one full machine simulation per iteration, so
// `go test -bench MachineRun ./internal/bench` measures the simulator hot
// path of one point, and with -cpuprofile profiles it (e.g. -bench
// 'MachineRun/quicksort/c64'). ns/op divided by the reported cycles/op metric
// is host nanoseconds per simulated cycle.
func BenchmarkMachineRun(b *testing.B) {
	for _, tc := range []struct {
		kernel string
		cores  int
	}{
		{"quicksort", 1},
		{"quicksort", 16},
		{"quicksort", 64},
		{"duplicates", 64},
	} {
		k, err := pbbs.Find(tc.kernel)
		if err != nil {
			b.Fatal(err)
		}
		n := k.ClampN(64)
		prog, err := k.Build(n, minic.ModeFork)
		if err != nil {
			b.Fatal(err)
		}
		in := k.Gen(n, 1)
		b.Run(fmt.Sprintf("%s/c%d", tc.kernel, tc.cores), func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := backend.RunMachine(prog, in, machine.DefaultConfig(tc.cores))
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles/op")
		})
	}
}

// BenchmarkMachineRunSteady times warmed re-runs on one reused machine
// (machine.Reset between iterations): the steady-state serving shape, where
// arenas are grown and the hot path allocates nothing. The gap between this
// and BenchmarkMachineRun is the per-simulation construction and GC cost.
func BenchmarkMachineRunSteady(b *testing.B) {
	k, err := pbbs.Find("quicksort")
	if err != nil {
		b.Fatal(err)
	}
	n := k.ClampN(64)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		b.Fatal(err)
	}
	in := k.Gen(n, 1)
	for _, cores := range []int{1, 64} {
		b.Run(fmt.Sprintf("c%d", cores), func(b *testing.B) {
			m, err := machine.New(prog, machine.DefaultConfig(cores))
			if err != nil {
				b.Fatal(err)
			}
			seed := func() {
				if err := backend.Inject(prog, m.DMH(), in); err != nil {
					b.Fatal(err)
				}
			}
			seed()
			if _, err := m.Run(); err != nil { // warm the arenas
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				m.Reset()
				seed()
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles/op")
		})
	}
}

// BenchmarkMeasureILP times one Fig. 7 point per iteration, nearestNeighbors
// at n=128: the compile, the traced emulation on the caller's goroutine and
// both dependence models on the sink's. With -cpuprofile it splits the
// point's CPU time between the emulator (emu.(*CPU).Run) and the analysers
// (ilp.(*Analyzer).Step), which run at once on two cores.
func BenchmarkMeasureILP(b *testing.B) {
	k, err := pbbs.Find("nearestNeighbors")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var insts int
	for i := 0; i < b.N; i++ {
		p, err := k.MeasureILP(128, 1)
		if err != nil {
			b.Fatal(err)
		}
		insts += p.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
}
