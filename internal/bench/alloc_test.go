// Package bench holds only tests: the allocation contracts of the machine and
// of a Fig. 7 point (this file), and the Go benchmarks of one machine run and
// of one Fig. 7 point (machine_bench_test.go). It times nothing for a report.
// How fast the host simulates is judged by the repository benchmark (`bash
// benchmark/run.sh` and `go run ./benchmark -compare`), host ns per simulated
// cycle of a sweep point is the `nsPerCycle` field of `repro sweep`'s JSONL,
// and one point's profile is `go test -run '^$' -bench
// 'MachineRun/quicksort/c64' -cpuprofile cpu.pprof ./internal/bench` (or
// `-bench MeasureILP` for a Fig. 7 point).
package bench

import (
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// steadyAllocBudget bounds the heap allocations of one whole warmed
// simulation (thousands of cycles): the Result construction and a few
// fixed-cost odds and ends. Anything per-cycle or per-instruction creeping
// back into the hot path shows up as thousands of allocations per run and
// fails loudly — the pre-arena implementation allocated ~30k times on this
// workload.
const steadyAllocBudget = 64

// TestSteadyStateAllocs pins the tentpole's allocation contract: on a warmed
// machine (arenas grown to the workload's footprint by one completed run),
// Reset + re-run performs effectively zero heap allocations per simulated
// cycle. Checked on one core and on 16 (multi-core exercises the renaming
// request path, section migration and the per-core queues).
func TestSteadyStateAllocs(t *testing.T) {
	k, err := pbbs.Find("duplicates")
	if err != nil {
		t.Fatal(err)
	}
	n := k.ClampN(64)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(n, 1)
	want, err := k.Ref(n, in)
	if err != nil {
		t.Fatal(err)
	}

	for _, cores := range []int{1, 16} {
		m, err := machine.New(prog, machine.DefaultConfig(cores))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Inject(prog, m.DMH(), in); err != nil {
			t.Fatal(err)
		}
		warm, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if warm.RAX != want {
			t.Fatalf("c%d: checksum %d, reference %d", cores, warm.RAX, want)
		}

		var runErr error
		avg := testing.AllocsPerRun(3, func() {
			m.Reset()
			if runErr = backend.Inject(prog, m.DMH(), in); runErr != nil {
				return
			}
			res, err := m.Run()
			if err != nil {
				runErr = err
				return
			}
			if res.RAX != want || res.Cycles != warm.Cycles {
				runErr = errMismatch
			}
		})
		if runErr != nil {
			t.Fatalf("c%d: warmed re-run failed: %v", cores, runErr)
		}
		perCycle := avg / float64(warm.Cycles)
		t.Logf("c%d: %.0f allocs per warmed run over %d cycles = %g allocs/cycle",
			cores, avg, warm.Cycles, perCycle)
		if avg > steadyAllocBudget {
			t.Errorf("c%d: warmed run allocated %.0f times (budget %d; %g allocs per simulated cycle) — the hot path is no longer allocation-free",
				cores, avg, steadyAllocBudget, perCycle)
		}
	}
}

// TestSteadyStateAllocsThroughPool re-checks the allocation contract through
// the warm-machine pool: a Get-hit (rebind), injection, run and Put cycle
// must stay within the same budget as a bare Reset re-run — the pool adds
// bookkeeping, not per-cycle allocation. The second leg is the traffic a
// sweep grid produces: before every run of the measured program the one
// pooled machine serves a different program on a different core count
// (outside the measurement), and the measured program's run — a
// cross-program, cross-shape rebind every time — still allocates only the
// fixed handful. In the third leg that other run is cut off half-way by a
// cycle cap and the machine parked as it stopped, instructions and requests
// still hanging on the cells and sections they waited for: the next bind must
// get every one of those objects back, or the measured run re-allocates them.
func TestSteadyStateAllocsThroughPool(t *testing.T) {
	pool := &machine.Pool{MaxIdle: 1}
	var runErr error
	pooledRun := func(kernel string, cores int, abort bool) func() {
		k, err := pbbs.Find(kernel)
		if err != nil {
			t.Fatal(err)
		}
		n := k.ClampN(64)
		prog, err := k.Build(n, minic.ModeFork)
		if err != nil {
			t.Fatal(err)
		}
		in := k.Gen(n, 1)
		want, err := k.Ref(n, in)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig(cores)
		if abort {
			whole, err := backend.RunMachine(prog, in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MaxCycles = whole.Machine.Cycles / 2
		}
		return func() {
			m, err := pool.Get("", prog, cfg)
			if err != nil {
				runErr = err
				return
			}
			if runErr = backend.Inject(prog, m.DMH(), in); runErr != nil {
				return
			}
			res, err := m.Run()
			if abort {
				if err == nil {
					runErr = errString("a run capped at half its cycles succeeded")
				}
				pool.Put("", m) // deliberately: the next bind must cope
				return
			}
			if err != nil {
				runErr = err
				return
			}
			pool.Put("", m)
			if res.RAX != want {
				runErr = errMismatch
			}
		}
	}
	measured := pooledRun("duplicates", 16, false)
	other, aborted := pooledRun("quicksort", 5, false), pooledRun("quicksort", 5, true)

	for _, leg := range []struct {
		name    string
		between func()
	}{
		{"same program", func() {}},
		{"different program in between", other},
		{"different program aborted in between", aborted},
	} {
		measured() // warm-up: grows the machine to the measured footprint
		const runs = 3
		var allocs uint64
		var ms runtime.MemStats
		for i := 0; i < runs; i++ {
			leg.between()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			measured()
			runtime.ReadMemStats(&ms)
			allocs += ms.Mallocs - before
		}
		if runErr != nil {
			t.Fatalf("%s: pooled re-run failed: %v", leg.name, runErr)
		}
		avg := allocs / runs
		t.Logf("%s: %d allocs per pooled run", leg.name, avg)
		if avg > steadyAllocBudget {
			t.Errorf("%s: pooled run allocated %d times (budget %d) — Get/Put is no longer allocation-free",
				leg.name, avg, steadyAllocBudget)
		}
	}
	if s := pool.Stats(); s.Misses != 1 || s.Dropped != 0 {
		t.Fatalf("pool stats %+v: the measured loops were not running on one reused machine", s)
	}
}

// TestRunAllocatesByWindow is the byte side of the allocation contract. A
// fresh machine's run allocates by what is in flight — instructions and the
// renaming cells something still names — not by an object and a row per
// instruction (440 bytes each before retired instructions left the machine)
// nor by a cell per result (42.7 bytes per instruction while cells stayed
// until Reset): nearestNeighbors n=64, 328 104 instructions in two sections,
// allocates 0.3 bytes per instruction, the DMH pages, the Result and the
// machine itself included, and the budget is 1 byte — the measured value
// plus 0.7 bytes (230 kB at this length) of margin for fixed costs, below the
// 4 bytes a single counter kept per instruction would add. And asking for the
// rows costs the rows: a warmed re-run with a collector attached — its buffer
// grown by the run before — makes no more allocations than a warmed run
// without one.
func TestRunAllocatesByWindow(t *testing.T) {
	k, err := pbbs.Find("nearestNeighbors")
	if err != nil {
		t.Fatal(err)
	}
	n := k.ClampN(64)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(n, 1)
	want, err := k.Ref(n, in)
	if err != nil {
		t.Fatal(err)
	}
	var rows machine.Collector
	var m *machine.Machine
	var res *machine.Result
	var ms runtime.MemStats
	measure := func(run func() error) (bytes, mallocs uint64) {
		runtime.ReadMemStats(&ms)
		b, a := ms.TotalAlloc, ms.Mallocs
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if res.RAX != want {
			t.Fatalf("checksum %d, reference %d", res.RAX, want)
		}
		return ms.TotalAlloc - b, ms.Mallocs - a
	}
	run := func() (err error) {
		if err = backend.Inject(prog, m.DMH(), in); err == nil {
			res, err = m.Run()
		}
		return err
	}

	fresh, _ := measure(func() (err error) {
		if m, err = machine.New(prog, machine.DefaultConfig(16)); err != nil {
			return err
		}
		return run()
	})
	perInst := float64(fresh) / float64(res.Instructions)
	t.Logf("fresh machine: %d bytes for %d instructions = %.1f B per instruction", fresh, res.Instructions, perInst)
	if perInst > 1 {
		t.Errorf("a fresh run allocated %.1f bytes per instruction, budget 1: something is kept per instruction again", perInst)
	}

	withRows := func() error {
		m.Reset()
		rows.Attach(m)
		if err := run(); err != nil {
			return err
		}
		if got := rows.Timings(res); int64(len(got)) != res.Instructions {
			t.Fatalf("%d rows of %d instructions", len(got), res.Instructions)
		}
		return nil
	}
	measure(withRows) // grows the collector's buffer
	bytes, mallocs := measure(withRows)
	t.Logf("warmed re-run with the rows collected: %d bytes in %d allocations", bytes, mallocs)
	if mallocs > steadyAllocBudget {
		t.Errorf("a warmed re-run with a collector attached allocated %d times (budget %d): the sink is not free of the hot path",
			mallocs, steadyAllocBudget)
	}
}

// TestMeasureILPAllocatesByFootprint: a Fig. 7 point's memory is the words it
// touches, not the instructions it runs. A stored trace is 48 bytes an
// instruction before either analysis has a map to keep (278 in all when the
// trace was stored), and an array of the instructions scheduled in each cycle
// was another 4 bytes a cycle; nearestNeighbors n=64, 328 104 instructions,
// stays under 2, the compile, the emulator's pages and both analysers' tables
// included.
func TestMeasureILPAllocatesByFootprint(t *testing.T) {
	k, err := pbbs.Find("nearestNeighbors")
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	p, err := k.MeasureILP(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	perInst := float64(ms.TotalAlloc-before) / float64(p.Instructions)
	t.Logf("%d bytes for %d instructions = %.1f B per instruction", ms.TotalAlloc-before, p.Instructions, perInst)
	if perInst > 2 {
		t.Errorf("a Fig. 7 point allocated %.1f bytes per instruction, budget 2: something is kept per instruction or per cycle again", perInst)
	}
}

var errMismatch = errString("warmed re-run produced a different result")

type errString string

func (e errString) Error() string { return string(e) }
