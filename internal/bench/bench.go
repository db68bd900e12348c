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
// `repro bench-sim` serialises the report to BENCH_machine.json, the
// checked-in performance trajectory every future change to the simulator's
// hot loop is diffed against.
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
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
)

// Schema identifies the BENCH_machine.json format. v3 drops v2's parallel
// phase-scheduler fields (the scheduler was removed) and computes all three
// top-level aggregates over the same points: those that ran both legs.
const Schema = "bench-machine-v3"

// Grid describes the benchmark grid.
type Grid struct {
	// Kernels are pbbs selectors (IDs or name substrings). Empty selects the
	// default trio covering a sorting, a graph and a hashing kernel.
	Kernels []string
	// N is the dataset size (clamped per kernel).
	N int
	// Cores are the simulated core counts. The 64-core point is where
	// idle-skip pays: few live sections spread over many cores means most
	// cores idle most cycles.
	Cores []int
	// Seed is the workload seed.
	Seed uint64
	// Runs is how many times each (point, scheduler) pair is timed; the
	// minimum wall time is reported, the usual defence against scheduling
	// noise.
	Runs int
	// BigNs are paper-scale dataset sizes timed, in addition to the standard
	// grid, for quickSort (the fork-heavy kernel with real section churn at
	// scale) on 64 cores (the many-core regime the paper's scaling studies
	// live in). Big-N points skip the dense leg (minutes-slow at these sizes)
	// and are timed once regardless of Runs — a multi-second simulation is
	// noise-immune without best-of-k.
	BigNs []int
	// Sums and WideSums are doubling steps n of the paper's §5 sum reduction
	// (5·2ⁿ elements, progs.BuildSumFork), each timed on analytic.Sections(n)+1
	// cores — a core per section and the loader's, the paper's "as many cores
	// as sections" and the shape of the repository benchmark's sum_paper
	// workload. Sums run both legs Runs times, like the standard grid;
	// WideSums are the big ones, idle-skip only and timed once, like BigNs.
	// Their points are named SumKernel with n the element count.
	Sums, WideSums []int
}

// SumKernel is the Point.Kernel of the §5 sum points.
const SumKernel = "paper/sum"

// DefaultGrid returns the standard trajectory grid: a fork-heavy kernel
// (quickSort), the few-sections extreme (removeDuplicates runs two sections,
// so on 64 cores almost every core idles almost every cycle) and the
// many-sections extreme (parallelKruskal, where the dense loop's per-core
// section scans dominate).
func DefaultGrid() Grid {
	return Grid{
		Kernels: []string{"quicksort", "duplicates", "kruskal"},
		N:       64,
		Cores:   []int{1, 16, 64},
		Seed:    1,
		Runs:    3,
		// 512 and 1024 are seconds-to-a-minute on a single-CPU host; 2048
		// already costs minutes, too slow for a checked-in trajectory.
		BigNs: []int{512, 1024},
		// n=5 is 191 sections on 192 cores (three bitset words of cores) and
		// still quick under dense; n=9 is the paper's 1 280-element example
		// doubled, 3 071 sections on 3 072 cores.
		Sums:     []int{5},
		WideSums: []int{9},
	}
}

// QuickGrid returns a seconds-scale grid for CI smoke runs. It keeps one
// big-N point (quickSort n=512 on 64 cores) and the wide sum (3 072 cores), so
// the smoke run exercises both schedulers, the paper-scale regime and the
// wide-chip regime — and its points all have DefaultGrid counterparts, so
// -against a full-grid baseline judges each of them.
func QuickGrid() Grid {
	return Grid{
		Kernels:  []string{"duplicates"},
		N:        64,
		Cores:    []int{1, 64},
		Seed:     1,
		Runs:     1,
		BigNs:    []int{512},
		WideSums: []int{9},
	}
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

// benchCase is one program of the grid with the core counts to sweep: the
// program, its inputs and its reference checksum are built once per case.
type benchCase struct {
	name  string
	n     int
	cores []int
	runs  int
	// dense selects whether the reference dense leg runs; big-N and wide
	// cases skip it (minutes-slow) and use idle-skip as the point's oracle
	// instead.
	dense bool
	build func() (prog *isa.Program, in backend.Inputs, want uint64, err error)
}

// kernelCase is the case of PBBS kernel k at dataset size n (clamped).
func kernelCase(k *pbbs.Kernel, n int, seed uint64, cores []int, runs int, dense bool) benchCase {
	n = k.ClampN(n)
	return benchCase{name: k.Name, n: n, cores: cores, runs: runs, dense: dense,
		build: func() (*isa.Program, backend.Inputs, uint64, error) {
			prog, err := k.Build(n, minic.ModeFork)
			if err != nil {
				return nil, nil, 0, err
			}
			in := k.Gen(n, seed)
			want, err := k.Ref(n, in)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("reference: %w", err)
			}
			return prog, in, want, nil
		}}
}

// sumCase is the case of the §5 sum at doubling step n, on a core per section
// plus one. The vector is baked into the program's data segment, so there are
// no inputs to inject.
func sumCase(step, runs int, dense bool) benchCase {
	elems := int(analytic.Elements(step))
	return benchCase{name: SumKernel, n: elems, cores: []int{int(analytic.Sections(step)) + 1}, runs: runs, dense: dense,
		build: func() (*isa.Program, backend.Inputs, uint64, error) {
			prog, err := progs.BuildSumFork(progs.Vector(elems))
			return prog, nil, progs.VectorSum(elems), err
		}}
}

// cases expands the grid into its measurement cases: the standard kernel ×
// core grid at g.N and the sums that run both legs, then the big-N and wide
// cases.
func (g Grid) cases() ([]benchCase, error) {
	sel := strings.Join(g.Kernels, ",")
	if sel == "" {
		sel = strings.Join(DefaultGrid().Kernels, ",")
	}
	ks, err := pbbs.FindAll(sel)
	if err != nil {
		return nil, err
	}
	var out []benchCase
	for _, k := range ks {
		out = append(out, kernelCase(k, g.N, g.Seed, g.Cores, g.Runs, true))
	}
	for _, step := range g.Sums {
		out = append(out, sumCase(step, g.Runs, true))
	}
	if len(g.BigNs) > 0 {
		big, err := pbbs.Find("quicksort")
		if err != nil {
			return nil, err
		}
		for _, n := range g.BigNs {
			out = append(out, kernelCase(big, n, g.Seed, []int{64}, 1, false))
		}
	}
	for _, step := range g.WideSums {
		out = append(out, sumCase(step, 1, false))
	}
	return out, nil
}

// Measure runs the grid and builds the report. Every point that runs the
// dense leg cross-checks idle-skip against it: differing cycles, instruction
// counts, checksums or NoC message totals are an error, so timing numbers are
// only ever produced for verified-identical simulations.
func Measure(g Grid) (*Report, error) {
	if g.N <= 0 {
		g.N = 64
	}
	if g.Runs <= 0 {
		g.Runs = 1
	}
	if len(g.Cores) == 0 {
		g.Cores = DefaultGrid().Cores
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	cases, err := g.cases()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Runs:       g.Runs,
	}
	// Aggregate accumulators, over the points that ran both legs.
	var denseNs, skipNs, cycles int64
	for _, bc := range cases {
		prog, in, want, err := bc.build()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", bc.name, err)
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
			if bc.dense {
				legs = append(legs, leg{"dense", true, &pt.DenseNs})
			}
			legs = append(legs, leg{"idle-skip", false, &pt.IdleSkipNs})
			for run := 0; run < bc.runs; run++ {
				for _, l := range legs {
					// The paper-calibrated default config (shortcut on,
					// 2-cycle creates) — the same machine every other entry
					// point simulates — with only the scheduler varied.
					mb := backend.NewMachine(cores)
					mb.Cfg.Dense = l.dense
					// Collect the previous simulation's garbage outside the
					// timed window, so each timing reflects its own run, not
					// the backlog of whichever scheduler happened to go
					// before it.
					runtime.GC()
					start := time.Now()
					res, err := mb.Run(prog, in, false)
					ns := time.Since(start).Nanoseconds()
					if err != nil {
						return nil, fmt.Errorf("bench: %s c%d %s: %w", bc.name, cores, l.name, err)
					}
					mr := res.Machine
					if mr.RAX != want {
						return nil, fmt.Errorf("bench: %s c%d %s: checksum %d, reference %d",
							bc.name, cores, l.name, mr.RAX, want)
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

// Load reads and validates a report written by Write.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	if len(r.Points) == 0 {
		return nil, fmt.Errorf("bench: %s: no points", path)
	}
	return &r, nil
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
