// Scheduler oracle over the full PBBS suite. This lives in the external test
// package because internal/pbbs imports internal/backend, which imports
// internal/machine — an in-package test would be an import cycle. The small
// hand-built workloads' dense ≡ idle-skip checks (and the scheduler-internals
// tests) stay in sched_test.go.
package machine_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/noc"
	"repro/internal/pbbs"
	"repro/internal/progs"
	"repro/internal/sweep"
)

// leg says how a run is to be made: under which scheduler, and whether it
// poisons the instructions it retires instead of recycling them.
type leg struct{ dense, poison bool }

var (
	denseLeg  = leg{dense: true}
	skipLeg   = leg{}
	poisonLeg = leg{poison: true}
)

// runRows injects in into m — freshly built or bound — and runs it as l says
// (m's configuration already carries the scheduler) with a collector attached.
func runRows(m *machine.Machine, prog *isa.Program, in pbbs.Inputs, l leg) (machine.Traced, error) {
	if err := backend.Inject(prog, m.DMH(), in); err != nil {
		return machine.Traced{}, err
	}
	if l.poison {
		machine.Poison(m)
	}
	return machine.RunRows(m)
}

// runFresh builds a machine for prog under cfg and l and runs it.
func runFresh(prog *isa.Program, in pbbs.Inputs, cfg machine.Config, l leg) (machine.Traced, error) {
	cfg.Dense = l.dense
	m, err := machine.New(prog, cfg)
	if err != nil {
		return machine.Traced{}, err
	}
	return runRows(m, prog, in, l)
}

// runMachine executes a compiled kernel as one leg and returns the full
// machine result. The program and inputs are built once by the caller and
// shared across the legs.
func runMachine(t *testing.T, k *pbbs.Kernel, prog *isa.Program, in pbbs.Inputs, n int, cfg machine.Config, l leg) machine.Traced {
	t.Helper()
	res, err := runFresh(prog, in, cfg, l)
	if err != nil {
		t.Fatalf("%s n=%d cores=%d %+v: %v", k.Name, n, cfg.Cores, l, err)
	}
	want, err := k.Ref(n, in)
	if err != nil {
		t.Fatalf("%s n=%d: reference: %v", k.Name, n, err)
	}
	if res.RAX != want {
		t.Fatalf("%s n=%d cores=%d: checksum %d, reference %d", k.Name, n, cfg.Cores, res.RAX, want)
	}
	return res
}

// TestThreeWayOracle pins the production scheduler's exactness on the
// paper's workloads. The three ways are the kernel's reference checksum, the
// dense reference loop and the idle-skip scheduler: for every one of the
// eleven kernels both schedulers reproduce the reference checksum
// (runMachine) and are bit-identical to each other — same cycle count, same
// per-instruction stage timestamps, same NoC accounting, same final
// architectural state. A third leg re-runs the production scheduler with
// every retired instruction poisoned instead of recycled: the two schedulers
// share that code, so only this leg shows a read of an instruction past its
// retirement.
//
// At n=12 the queues hold a handful of entries. The deep-queue legs run the
// three kernels with the longest dependence chains at n=128, where a core's
// queues hold hundreds of instructions blocked on unproduced values and
// hundreds of requests wait at unrenamed sections — the work the idle-skip
// scheduler parks and the dense one polls — on one core and sixteen, a
// crossbar and a mesh whose three-cycle hops spread the wake times, with the
// call-level shortcut on and off (off, requests visit every section). A
// late or lost wake moves a timestamp row and fails here.
//
// The wide-sum legs cross a machine word: the production scheduler keeps its
// armed cores and its load buckets in bitsets, and no leg above has more than
// 16 cores. They run the paper's §5 sum at doubling steps 4 and 5 on as many
// cores as sections plus one (96, 192 — the benchmark's sum_paper shape) and
// on 65 and 130 cores, where the spreading chooser wraps in the middle of a
// word; spreading and packing with caps 1 and 2 (at 65 cores the caps
// overflow softly); a crossbar and a mesh. The reference here is the vector's
// closed-form sum.
func TestThreeWayOracle(t *testing.T) {
	for _, k := range pbbs.Kernels() {
		k := k
		t.Run(fmt.Sprintf("%02d-%s", k.ID, k.Name), func(t *testing.T) {
			n := k.ClampN(12)
			prog, err := k.Build(n, minic.ModeFork)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			in := k.Gen(n, 1)
			for _, cores := range []int{1, 4, 16} {
				cfg := machine.Config{Cores: cores, CreateLatency: 2, Shortcut: true}
				dense := runMachine(t, k, prog, in, n, cfg, denseLeg)
				skip := runMachine(t, k, prog, in, n, cfg, skipLeg)
				machine.SameRun(t, fmt.Sprintf("%s n=%d cores=%d dense vs idle-skip", k.Name, n, cores), dense, skip)
				poisoned := runMachine(t, k, prog, in, n, cfg, poisonLeg)
				machine.SameRun(t, fmt.Sprintf("%s n=%d cores=%d idle-skip vs poisoned", k.Name, n, cores), skip, poisoned)
			}
		})
	}
	t.Run("wide-sum", func(t *testing.T) {
		t.Parallel()
		for _, n := range []int{4, 5} {
			elems := int(analytic.Elements(n))
			prog, err := progs.BuildSumFork(progs.Vector(elems))
			if err != nil {
				t.Fatal(err)
			}
			for _, cores := range []int{int(analytic.Sections(n)) + 1, 65, 130} {
				for _, topo := range []string{sweep.TopoCrossbar, sweep.TopoMesh} {
					for _, maxSec := range []int{0, 1, 2} {
						label := fmt.Sprintf("sum n=%d cores=%d %s cap=%d", n, cores, topo, maxSec)
						var res [3]machine.Traced
						for i, l := range []leg{denseLeg, skipLeg, poisonLeg} {
							net, err := sweep.MakeNet(topo, cores)
							if err != nil {
								t.Fatal(err)
							}
							res[i], err = runFresh(prog, nil, machine.Config{Cores: cores, Net: net, CreateLatency: 2,
								Shortcut: true, MaxSectionsPerCore: maxSec}, l)
							if err != nil {
								t.Fatalf("%s %+v: %v", label, l, err)
							}
							if want := progs.VectorSum(elems); res[i].RAX != want {
								t.Fatalf("%s %+v: sum %d, want %d", label, l, res[i].RAX, want)
							}
						}
						machine.SameRun(t, label+" dense vs idle-skip", res[0], res[1])
						machine.SameRun(t, label+" idle-skip vs poisoned", res[1], res[2])
					}
				}
			}
		}
	})
	for _, name := range []string{"quickSort", "quickHull", "parallelKruskal"} {
		k, err := pbbs.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("deep-"+name, func(t *testing.T) {
			t.Parallel() // most of the time is the dense legs
			n := 128
			if testing.Short() { // the race job; dense at n=128 is minutes there
				n = 32
			}
			n = k.ClampN(n)
			prog, err := k.Build(n, minic.ModeFork)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			in := k.Gen(n, 1)
			for _, cores := range []int{1, 16} {
				w := 1
				for w*w < cores {
					w++
				}
				for _, net := range []noc.Network{noc.NewCrossbar(cores, 1), noc.NewMesh(w, cores/w, 3)} {
					for _, shortcut := range []bool{true, false} {
						cfg := machine.Config{Cores: cores, Net: net, CreateLatency: 2, Shortcut: shortcut}
						dense := runMachine(t, k, prog, in, n, cfg, denseLeg)
						skip := runMachine(t, k, prog, in, n, cfg, skipLeg)
						machine.SameRun(t, fmt.Sprintf("%s n=%d cores=%d %s shortcut=%v dense vs idle-skip",
							k.Name, n, cores, net.Name(), shortcut), dense, skip)
						poisoned := runMachine(t, k, prog, in, n, cfg, poisonLeg)
						machine.SameRun(t, fmt.Sprintf("%s n=%d cores=%d %s shortcut=%v idle-skip vs poisoned",
							k.Name, n, cores, net.Name(), shortcut), skip, poisoned)
					}
				}
			}
		})
	}
}

// TestRebindOracle pins the one claim the keyless warm pool rests on: a
// machine carries nothing of its previous program into the next run. ONE
// machine, taken from a one-slot pool, is bound in turn to every point of the
// benchmark's G66 grid (eleven kernels × cores {1,16,64} × {crossbar, mesh})
// and each result — cycles, counters, final registers, sections, every
// per-instruction six-stage timestamp row — must equal a fresh machine.New
// run of the same point. The visiting order changes kernel and chip at every
// step and alternates long with short programs and wide with narrow chips, so
// every bind both shrinks and grows what the machine holds. After every
// second point the machine is also bound to the same point under a cycle cap
// that aborts the run half-way — instructions parked on unproduced values,
// requests parked at unrenamed sections — and parked like that, so half the
// binds start from a machine that stopped mid-run.
//
// The wide leg takes the chip across many bitset words and back: one pooled
// machine runs the §5 sum on 3 072 cores, then on 1, on 65 and on 3 072 again
// (the middle two after a run aborted half-way), each equal to a fresh
// machine's run. An armed bit, a load bucket or a ready list that survived
// past a narrower chip's width would move the last run's section placement or
// its timestamps.
func TestRebindOracle(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 16
	}
	type kernelRun struct {
		k    *pbbs.Kernel
		n    int
		prog *isa.Program
		in   pbbs.Inputs
		want uint64
		size int64 // dynamic instructions, the program's "length"
	}
	type chip struct {
		cores int
		topo  string
	}
	chips := []chip{{64, "crossbar"}, {1, "mesh"}, {16, "crossbar"}, {64, "mesh"}, {1, "crossbar"}, {16, "mesh"}}
	config := func(c chip) machine.Config {
		net, err := sweep.MakeNet(c.topo, c.cores)
		if err != nil {
			t.Fatal(err)
		}
		return machine.Config{Cores: c.cores, Net: net, CreateLatency: 2, Shortcut: true}
	}
	run := func(kr *kernelRun, m *machine.Machine, label string, l leg) machine.Traced {
		res, err := runRows(m, kr.prog, kr.in, l)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.RAX != kr.want {
			t.Fatalf("%s: checksum %d, reference %d", label, res.RAX, kr.want)
		}
		return res
	}

	var runs []*kernelRun
	fresh := map[string]machine.Traced{}
	for _, k := range pbbs.Kernels() {
		kr := &kernelRun{k: k, n: k.ClampN(n)}
		var err error
		if kr.prog, err = k.Build(kr.n, minic.ModeFork); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		kr.in = k.Gen(kr.n, 1)
		if kr.want, err = k.Ref(kr.n, kr.in); err != nil {
			t.Fatalf("%s: reference: %v", k.Name, err)
		}
		for _, c := range chips {
			label := fmt.Sprintf("%s n=%d cores=%d %s", k.Name, kr.n, c.cores, c.topo)
			m, err := machine.New(kr.prog, config(c))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fresh[label] = run(kr, m, label+" fresh", skipLeg)
			kr.size = fresh[label].Instructions
		}
		runs = append(runs, kr)
	}
	// Longest, shortest, second longest, second shortest, …
	sort.Slice(runs, func(i, j int) bool { return runs[i].size > runs[j].size })
	order := make([]*kernelRun, 0, len(runs))
	for lo, hi := 0, len(runs)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, runs[lo])
		if lo != hi {
			order = append(order, runs[hi])
		}
	}

	// 11 kernels and 6 chips are coprime, so stepping both indices together
	// visits every (kernel, chip) pair exactly once while changing both at
	// every step.
	pool := &machine.Pool{MaxIdle: 1}
	var first *machine.Machine
	for i := 0; i < len(order)*len(chips); i++ {
		kr, c := order[i%len(order)], chips[i%len(chips)]
		label := fmt.Sprintf("%s n=%d cores=%d %s", kr.k.Name, kr.n, c.cores, c.topo)
		m, err := pool.Get("", kr.prog, config(c))
		if err != nil {
			t.Fatalf("%s: Get: %v", label, err)
		}
		if first == nil {
			first = m
		} else if m != first {
			t.Fatalf("%s: the pool built a second machine", label)
		}
		// Every third rebound run is a poisoned one: what the bind handed it
		// is recycled instructions of another program, and what it leaves
		// behind is an arena grown to the run's length, which Put may trim.
		l := skipLeg
		if i%3 == 2 {
			l = poisonLeg
		}
		got := run(kr, m, label+" rebound", l)
		machine.SameRun(t, label+" rebound vs fresh", fresh[label], got)
		delete(fresh, label)
		pool.Put("", m)
		if i%2 == 1 {
			capped := config(c)
			capped.MaxCycles = got.Cycles / 2
			if m, err = pool.Get("", kr.prog, capped); err != nil {
				t.Fatalf("%s: capped Get: %v", label, err)
			}
			if err := backend.Inject(kr.prog, m.DMH(), kr.in); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if _, err := m.Run(); err == nil {
				t.Fatalf("%s: a run capped at half its cycles succeeded", label)
			}
			pool.Put("", m) // deliberately: the next bind must cope
		}
	}
	if len(fresh) != 0 {
		t.Errorf("%d grid points were never visited", len(fresh))
	}
	t.Run("wide", func(t *testing.T) {
		wide := &machine.Pool{MaxIdle: 1}
		var first *machine.Machine
		for i, step := range []struct{ n, cores int }{{9, 3072}, {2, 1}, {4, 65}, {9, 3072}} {
			label := fmt.Sprintf("step %d: sum n=%d cores=%d", i, step.n, step.cores)
			prog, err := progs.BuildSumFork(progs.Vector(int(analytic.Elements(step.n))))
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.DefaultConfig(step.cores)
			want, err := runFresh(prog, nil, cfg, skipLeg)
			if err != nil {
				t.Fatalf("%s fresh: %v", label, err)
			}
			if i > 0 {
				// Stop half-way first and park the machine like that: cores
				// armed, sections listed, loads spread over the buckets.
				cfg.MaxCycles = want.Cycles / 2
				m, err := wide.Get("", prog, cfg)
				if err != nil {
					t.Fatalf("%s capped: %v", label, err)
				}
				if _, err := m.Run(); err == nil {
					t.Fatalf("%s: a run capped at half its cycles succeeded", label)
				}
				wide.Put("", m)
				cfg.MaxCycles = 0
			}
			m, err := wide.Get("", prog, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if first == nil {
				first = m
			} else if m != first {
				t.Fatalf("%s: the pool built a second machine", label)
			}
			got, err := runRows(m, prog, nil, leg{poison: i%2 == 1})
			if err != nil {
				t.Fatalf("%s rebound: %v", label, err)
			}
			machine.SameRun(t, label+" rebound vs fresh", want, got)
			wide.Put("", m)
		}
	})
	points := len(order) * len(chips)
	if s := pool.Stats(); s.Misses != 1 || s.Hits != int64(points+points/2-1) || s.Dropped != 0 {
		t.Errorf("pool stats %+v, want 1 machine built and every other point reusing it", s)
	}
}

// TestRebindRefusesWhatNewRefuses: a Get the machine cannot serve — a program
// with CALL, a chip with no cores, a cycle cap past 32 bits — fails with New's error whether or not a
// machine is parked, and the parked machine stays parked and usable.
func TestRebindRefusesWhatNewRefuses(t *testing.T) {
	good, err := progs.BuildSumFork(progs.Vector(40))
	if err != nil {
		t.Fatal(err)
	}
	withCall, err := progs.BuildSumCall(progs.Vector(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := runFresh(good, nil, machine.DefaultConfig(4), skipLeg)
	if err != nil {
		t.Fatal(err)
	}
	pool := &machine.Pool{MaxIdle: 1}
	parked, err := pool.Get("", good, machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parked.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put("", parked)
	for _, bad := range []struct {
		label string
		prog  *isa.Program
		cfg   machine.Config
	}{
		{"program with CALL", withCall, machine.DefaultConfig(4)},
		{"zero cores", good, machine.DefaultConfig(0)},
		{"MaxCycles past 32 bits", good, machine.Config{Cores: 4, MaxCycles: math.MaxInt32 + 1}},
		{"network over fewer cores", good, machine.Config{Cores: 4, Net: noc.NewRing(3, 1), CreateLatency: 2, Shortcut: true}},
	} {
		_, newErr := machine.New(bad.prog, bad.cfg)
		_, getErr := pool.Get("", bad.prog, bad.cfg)
		if newErr == nil || getErr == nil || getErr.Error() != newErr.Error() {
			t.Errorf("%s: Get error %v, want New's %v", bad.label, getErr, newErr)
		}
		if bad.prog == withCall && !strings.Contains(getErr.Error(), "call") {
			t.Errorf("%s: error %q does not name the instruction", bad.label, getErr)
		}
	}
	m, err := pool.Get("", good, machine.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if m != parked {
		t.Fatal("the refused Gets lost the parked machine")
	}
	got, err := runRows(m, good, nil, skipLeg)
	if err != nil {
		t.Fatal(err)
	}
	machine.SameRun(t, "parked machine after refused Gets", want, got)
}

// runAtScale runs kernel at n on cores on a fresh machine, checks the
// reference checksum and returns the machine and its result.
func runAtScale(t *testing.T, kernel string, n, cores int) (*machine.Machine, *machine.Result) {
	t.Helper()
	k, err := pbbs.Find(kernel)
	if err != nil {
		t.Fatal(err)
	}
	n = k.ClampN(n)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(prog, machine.DefaultConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(n, 1)
	if err := backend.Inject(prog, m.DMH(), in); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := k.Ref(n, in); err != nil || r.RAX != want {
		t.Fatalf("%s: checksum %d, reference %d (%v)", k.Name, r.RAX, want, err)
	}
	return m, r
}

// TestRetiredInstructionsAreRecycled is the memory contract: the instruction
// arena follows the run's un-retired window, not its length. nearestNeighbors
// runs 328 104 instructions as two sections with sixteen in flight at most;
// quickSort n=512 on 64 cores (the benchmark's machine_bign point) 268 554
// with some 17 000 in flight. A retired instruction that is not handed out
// again — kept by a list, or leaked past the free list — shows as an arena
// the size of the run.
func TestRetiredInstructionsAreRecycled(t *testing.T) {
	for _, pt := range []struct {
		kernel   string
		n, cores int
		atMost   int // DynInsts, well under the run's length
	}{
		{"nearestNeighbors", 64, 16, 1_000},
		{"quickSort", 512, 64, 40_000},
	} {
		m, r := runAtScale(t, pt.kernel, pt.n, pt.cores)
		allocated, peak := machine.DynStats(m)
		t.Logf("%s n=%d on %d cores: %d instructions, %d sections, at most %d in flight, %d DynInsts allocated",
			pt.kernel, pt.n, pt.cores, r.Instructions, len(r.Sections), peak, allocated)
		if allocated > 2*peak+machine.DynChunk || allocated > pt.atMost {
			t.Errorf("%s: %d DynInsts allocated for %d instructions with at most %d in flight (bounds %d and %d)",
				pt.kernel, allocated, r.Instructions, peak, 2*peak+machine.DynChunk, pt.atMost)
		}
	}
}

// TestCellsFollowTheWindow is the same contract for renaming cells: a cell is
// freed when the last thing naming it lets go — the instruction that
// overwrote its alias-table slot retiring, its section dumping, a request
// answered — and handed out again, so the arena holds what is named at once,
// not every cell the run claims. nearestNeighbors n=64 claims 434 091 cells,
// of which some 160 are named at once; quickSort n=512 on 64 cores claims
// 352 922, some 23 000 at once. A count that is never let down shows as an
// arena the size of the run, and at the end of a run nothing names any cell.
func TestCellsFollowTheWindow(t *testing.T) {
	for _, pt := range []struct {
		kernel   string
		n, cores int
		atMost   int // cells, well under the run's length
	}{
		{"nearestNeighbors", 64, 16, 1_000},
		{"quickSort", 512, 64, 40_000},
	} {
		m, r := runAtScale(t, pt.kernel, pt.n, pt.cores)
		allocated, named := machine.CellStats(m)
		t.Logf("%s n=%d on %d cores: %d instructions, %d cells allocated", pt.kernel, pt.n, pt.cores, r.Instructions, allocated)
		if allocated > pt.atMost {
			t.Errorf("%s: %d cells allocated for %d instructions (bound %d)", pt.kernel, allocated, r.Instructions, pt.atMost)
		}
		if named != 0 {
			t.Errorf("%s: %d cells are still named after the run", pt.kernel, named)
		}
	}
}

// TestSectionsFollowTheWindow is the same contract for section shells: a
// section leaves the machine when it dumps, and its shell goes to the next
// fork, so a run allocates as many shells as it has sections undumped at
// once, not one per section. quickSort n=512 on 64 cores creates 689
// sections and allocates 31 shells; it allocated all 689 while a dumped
// section stayed in the order until Reset. The run's result still lists every
// section, in position order. The §5 sum at n=9 holds nearly all of its 3 072
// sections undumped at once (3 056 shells), so there reuse saves little; the
// test logs it.
func TestSectionsFollowTheWindow(t *testing.T) {
	m, r := runAtScale(t, "quickSort", 512, 64)
	shells, free := machine.SectionStats(m)
	t.Logf("quickSort n=512 on 64 cores: %d sections, %d shells allocated", len(r.Sections), shells)
	if shells > 128 {
		t.Errorf("%d shells allocated for %d sections (bound 128)", shells, len(r.Sections))
	}
	if free != shells {
		t.Errorf("only %d of the %d shells are back on the free list after the run", free, shells)
	}
	if len(r.Sections) != 689 {
		t.Errorf("%d sections listed, want 689", len(r.Sections))
	}
	seen := make([]bool, len(r.Sections))
	for i, s := range r.Sections {
		if s.Pos != i {
			t.Fatalf("section %d is listed %d-th with position %d", s.ID, i, s.Pos)
		}
		if s.ID < 0 || s.ID >= int64(len(seen)) || seen[s.ID] {
			t.Fatalf("section ID %d listed twice or out of range", s.ID)
		}
		seen[s.ID] = true
	}

	const n = 9
	p, err := progs.BuildSumFork(progs.Vector(5 << n))
	if err != nil {
		t.Fatal(err)
	}
	m, err = machine.New(p, machine.DefaultConfig(int(analytic.Sections(n))+1))
	if err != nil {
		t.Fatal(err)
	}
	if r, err = m.Run(); err != nil {
		t.Fatal(err)
	}
	shells, _ = machine.SectionStats(m)
	t.Logf("sum n=%d: %d sections, %d shells allocated", n, len(r.Sections), shells)
}

// TestRelabelEveryForkMovesNothing: the section order's labels matter only
// through how they compare. The §5 sum for n=0..7, on TestSumPaperNumbers'
// chips, runs to the same result, section records and rows when every fork
// relabels the whole order as when forks relabel only where a gap runs out;
// RunRows also checks each run's rows against the positions their sections
// had when they retired. The relabelled run is poisoned, so the order's
// links and labels are checked at every fork too.
func TestRelabelEveryForkMovesNothing(t *testing.T) {
	for n := 0; n <= 7; n++ {
		p, err := progs.BuildSumFork(progs.Vector(int(analytic.Elements(n))))
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig(int(analytic.Sections(n)) + 1)
		run := func(relabel bool) machine.Traced {
			m, err := machine.New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if relabel {
				machine.RelabelEveryFork(m)
				machine.Poison(m)
			}
			r, err := machine.RunRows(m)
			if err != nil {
				t.Fatalf("sum n=%d relabel=%v: %v", n, relabel, err)
			}
			return r
		}
		machine.SameRun(t, fmt.Sprintf("sum n=%d relabelled at every fork", n), run(false), run(true))
	}
}
