// Package bench times the cycle-level machine simulator itself — not the
// simulated chip. It reproduces no paper material: it is infrastructure
// guarding the speed of the §4 model that every scaling study (Figs. 8–10)
// runs on. It runs a fixed kernel × core-count grid under the simulator's two
// schedulers (the reference dense loop and the production idle-skip
// scheduler), verifies on every point that both produce bit-identical
// simulation results, and reports wall time and nanoseconds per simulated
// cycle for each.
//
// Beyond the small standard trio the grid carries paper-scale big-N points
// (dataset sizes in the thousands on 64 cores). Those skip the dense leg —
// the dense loop's per-core, per-cycle scans make it minutes-slow out there,
// which is exactly why idle-skip exists — and are timed once: a multi-second
// simulation does not need best-of-three to be noise-immune.
//
// The kernels are long and narrow: tens of sections live at a time, whatever
// the chip. The paper's own §5 example is the opposite — the sum of 5·2ⁿ
// elements makes 6·2ⁿ−1 sections of 10–20 instructions and wants a core for
// each — so the grid also times that sum on as many cores as sections plus
// one: at n=9, 3 072 cores for a run of 2 377 cycles, where any scheduler work
// proportional to the chip rather than to the cycle's events dominates.
//
// `repro bench-sim` prints the report and serialises it to BENCH_machine.json,
// the checked-in dense-vs-idle-skip table nothing else produces. The package
// does not judge a speed change between two commits: that is the repository
// benchmark's job (`bash benchmark/run.sh -seed 1 -o A.json` on each side,
// then `go run ./benchmark -compare A.json B.json`, with bounds taken from
// recorded spread). To profile one point, use the standard tool on this
// package's benchmarks: `go test -bench 'MachineRun/quicksort/c64'
// -cpuprofile cpu.pprof ./internal/bench`.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
)

// Schema identifies the BENCH_machine.json format. v3 drops v2's parallel
// phase-scheduler fields (the scheduler was removed) and computes all three
// top-level aggregates over the same points: those that ran both legs.
const Schema = "bench-machine-v3"

// gridCase is one program of a grid and the chips to time it on: the PBBS
// kernel a pbbs selector names at dataset size n (clamped) on each of cores,
// or — kernel SumKernel — the paper's §5 sum reduction at doubling step n
// (5·2ⁿ elements, progs.BuildSumFork) on analytic.Sections(n)+1 cores: a core
// per section and the loader's, the paper's "as many cores as sections" and
// the shape of the repository benchmark's sum_paper workload. Every point runs
// the paper-calibrated default machine on workload seed 1.
type gridCase struct {
	kernel string
	n      int
	cores  []int
	// dense selects whether the reference dense leg runs. The cases with it
	// are timed the grid's number of runs under each scheduler and the minimum
	// wall time is reported, the usual defence against scheduling noise. Big-N
	// and wide cases skip it (minutes-slow out there), use idle-skip as the
	// point's oracle and are timed once: a multi-second simulation is
	// noise-immune without best-of-k.
	dense bool
}

// SumKernel is the Point.Kernel of the §5 sum points; their n is the element
// count.
const SumKernel = "paper/sum"

// standardGrid is the committed table's grid, best of three runs, in
// BENCH_machine.json's row order.
var standardGrid = []gridCase{
	// A fork-heavy kernel (quickSort), the many-sections extreme
	// (parallelKruskal, where the dense loop's per-core section scans
	// dominate) and the few-sections extreme (removeDuplicates runs two
	// sections). The 64-core point is where idle-skip pays: few live sections
	// spread over many cores means most cores idle most cycles.
	{"quicksort", 64, []int{1, 16, 64}, true},
	{"kruskal", 64, []int{1, 16, 64}, true},
	{"duplicates", 64, []int{1, 16, 64}, true},
	// Step 5 is 191 sections on 192 cores (three bitset words of cores) and
	// still quick under dense.
	{SumKernel, 5, nil, true},
	// Paper-scale sizes for quickSort (real section churn at scale) on 64
	// cores (the many-core regime the paper's scaling studies live in). 4096
	// is 2.85 million instructions: 5 s and 1.4 GB while every one of them
	// stayed in memory until the end of the run (440 bytes each), 1.2 s and
	// 170 MB now that a retired instruction leaves the machine.
	{"quicksort", 512, []int{64}, false},
	{"quicksort", 1024, []int{64}, false},
	{"quicksort", 4096, []int{64}, false},
	// Step 9 is the paper's 1 280-element example doubled, 3 071 sections on
	// 3 072 cores.
	{SumKernel, 9, nil, false},
}

// quickGrid is the seconds-scale grid of CI smoke runs, each point timed
// once: both schedulers, the paper-scale regime and the wide-chip regime.
// Every one of its points is a standardGrid point too.
var quickGrid = []gridCase{
	{"duplicates", 64, []int{1, 64}, true},
	{"quicksort", 512, []int{64}, false},
	{SumKernel, 9, nil, false},
}

// Point is one measured grid point: one kernel at one core count, simulated
// under each scheduler. Big-N points carry no dense figures (DenseNs and
// friends stay 0).
type Point struct {
	Kernel       string `json:"kernel"`
	N            int    `json:"n"`
	Cores        int    `json:"cores"`
	Sections     int    `json:"sections"`
	Instructions int64  `json:"instructions"`
	Cycles       int64  `json:"cycles"`
	NocMessages  int64  `json:"nocMessages"`
	// DenseNs and IdleSkipNs are the best-of-Runs wall times of one full
	// simulation under each scheduler.
	DenseNs    int64 `json:"denseNs"`
	IdleSkipNs int64 `json:"idleSkipNs"`
	// DenseNsPerCycle and IdleSkipNsPerCycle divide the wall times by the
	// simulated cycle count — the simulator's figure of merit.
	DenseNsPerCycle    float64 `json:"denseNsPerCycle"`
	IdleSkipNsPerCycle float64 `json:"idleSkipNsPerCycle"`
	// Speedup is DenseNsPerCycle / IdleSkipNsPerCycle (the cycle counts are
	// identical by construction, so this equals the wall-time ratio).
	Speedup float64 `json:"speedup"`
}

// Report is the serialised benchmark outcome.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is the machine's logical CPU count (runtime.NumCPU) and
	// Gomaxprocs the scheduler's processor limit at measurement time —
	// recorded separately because they routinely differ under containers
	// and CI cgroup limits, and trajectory points are only comparable when
	// both match. (Reports written before the split carry gomaxprocs 0 =
	// unknown.)
	CPUs       int     `json:"cpus"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Runs       int     `json:"runs"`
	Points     []Point `json:"points"`
	// Aggregates over the points that ran both legs (big-N points skip dense
	// and are left out of all three, so the figures describe one population):
	// total wall time divided by total simulated cycles per scheduler, and
	// the total wall-time ratio.
	DenseNsPerCycle    float64 `json:"denseNsPerCycle"`
	IdleSkipNsPerCycle float64 `json:"idleSkipNsPerCycle"`
	Speedup            float64 `json:"speedup"`
}

// benchCase is a gridCase built: the name and size its points carry in the
// report, the chips, and the program with its inputs and reference checksum.
type benchCase struct {
	name  string
	n     int
	cores []int
	prog  *isa.Program
	in    backend.Inputs
	want  uint64
}

func (c gridCase) build() (benchCase, error) {
	if c.kernel == SumKernel {
		// The vector is baked into the program's data segment, so there are
		// no inputs to inject.
		elems := int(analytic.Elements(c.n))
		prog, err := progs.BuildSumFork(progs.Vector(elems))
		return benchCase{SumKernel, elems, []int{int(analytic.Sections(c.n)) + 1}, prog, nil, progs.VectorSum(elems)}, err
	}
	k, err := pbbs.Find(c.kernel)
	if err != nil {
		return benchCase{}, err
	}
	n := k.ClampN(c.n)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		return benchCase{}, err
	}
	in := k.Gen(n, 1)
	want, err := k.Ref(n, in)
	if err != nil {
		return benchCase{}, fmt.Errorf("reference: %w", err)
	}
	return benchCase{k.Name, n, c.cores, prog, in, want}, nil
}

// Measure runs the standard grid, or the quick one, and builds the report.
// Every point that runs the dense leg cross-checks idle-skip against it:
// differing cycles, instruction counts, checksums or NoC message totals are an
// error, so timing numbers are only ever produced for verified-identical
// simulations.
func Measure(quick bool) (*Report, error) {
	grid, best := standardGrid, 3
	if quick {
		grid, best = quickGrid, 1
	}
	rep := &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Runs:       best,
	}
	// Aggregate accumulators, over the points that ran both legs.
	var denseNs, skipNs, cycles int64
	for _, gc := range grid {
		bc, err := gc.build()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", gc.kernel, err)
		}
		runs := 1
		if gc.dense {
			runs = best
		}
		for _, cores := range bc.cores {
			pt := Point{Kernel: bc.name, N: bc.n, Cores: cores}
			// The legs of this point, in oracle-first order: every later leg
			// is cross-checked against the first one's results.
			type leg struct {
				name  string
				dense bool
				best  *int64
			}
			var legs []leg
			if gc.dense {
				legs = append(legs, leg{"dense", true, &pt.DenseNs})
			}
			legs = append(legs, leg{"idle-skip", false, &pt.IdleSkipNs})
			for run := 0; run < runs; run++ {
				for _, l := range legs {
					// The paper-calibrated default config (shortcut on,
					// 2-cycle creates) — the same machine every other entry
					// point simulates — with only the scheduler varied.
					cfg := machine.DefaultConfig(cores)
					cfg.Dense = l.dense
					// Collect the previous simulation's garbage outside the
					// timed window, so each timing reflects its own run, not
					// the backlog of whichever scheduler happened to go
					// before it.
					runtime.GC()
					start := time.Now()
					res, err := backend.RunMachine(bc.prog, bc.in, cfg)
					ns := time.Since(start).Nanoseconds()
					if err != nil {
						return nil, fmt.Errorf("bench: %s c%d %s: %w", bc.name, cores, l.name, err)
					}
					mr := res.Machine
					if mr.RAX != bc.want {
						return nil, fmt.Errorf("bench: %s c%d %s: checksum %d, reference %d",
							bc.name, cores, l.name, mr.RAX, bc.want)
					}
					if *l.best == 0 || ns < *l.best {
						*l.best = ns
					}
					if pt.Cycles == 0 {
						pt.Sections = len(mr.Sections)
						pt.Instructions = mr.Instructions
						pt.Cycles = mr.Cycles
						pt.NocMessages = mr.NocMessages()
					} else if mr.Cycles != pt.Cycles || mr.Instructions != pt.Instructions ||
						mr.NocMessages() != pt.NocMessages {
						return nil, fmt.Errorf(
							"bench: %s c%d: %s diverges from the %s oracle (cycles %d vs %d, instr %d vs %d, noc %d vs %d)",
							bc.name, cores, l.name, legs[0].name, mr.Cycles, pt.Cycles,
							mr.Instructions, pt.Instructions, mr.NocMessages(), pt.NocMessages)
					}
				}
			}
			pt.IdleSkipNsPerCycle = float64(pt.IdleSkipNs) / float64(pt.Cycles)
			if pt.DenseNs > 0 {
				pt.DenseNsPerCycle = float64(pt.DenseNs) / float64(pt.Cycles)
				pt.Speedup = pt.DenseNsPerCycle / pt.IdleSkipNsPerCycle
				denseNs += pt.DenseNs
				skipNs += pt.IdleSkipNs
				cycles += pt.Cycles
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	if cycles > 0 {
		rep.DenseNsPerCycle = float64(denseNs) / float64(cycles)
		rep.IdleSkipNsPerCycle = float64(skipNs) / float64(cycles)
		rep.Speedup = float64(denseNs) / float64(skipNs)
	}
	return rep, nil
}

// Write serialises the report to path (indented JSON, trailing newline).
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table renders the report as an aligned text table. The dense leg prints
// "-" on the big-N points, which skip it.
func (r *Report) Table() string {
	ms := func(ns int64) string {
		if ns == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", float64(ns)/1e6)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %5s %6s %5s %10s %11s %11s %10s %7s\n",
		"benchmark", "n", "cores", "secs", "cycles", "dense-ms", "idle-ms", "idle-ns/c", "speedup")
	for _, p := range r.Points {
		name := p.Kernel
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		speedup := "-"
		if p.Speedup != 0 {
			speedup = fmt.Sprintf("%.2fx", p.Speedup)
		}
		fmt.Fprintf(&b, "%-28s %5d %6d %5d %10d %11s %11s %10.1f %7s\n",
			name, p.N, p.Cores, p.Sections, p.Cycles,
			ms(p.DenseNs), ms(p.IdleSkipNs), p.IdleSkipNsPerCycle, speedup)
	}
	fmt.Fprintf(&b, "aggregate: dense %.1f ns/cycle, idle-skip %.1f ns/cycle, speedup %.2fx over the points with both legs (%s, %d cpus, gomaxprocs %d, best of %d)\n",
		r.DenseNsPerCycle, r.IdleSkipNsPerCycle, r.Speedup, r.GoVersion, r.CPUs, r.Gomaxprocs, r.Runs)
	return b.String()
}
