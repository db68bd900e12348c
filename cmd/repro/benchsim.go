package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
)

// cmdBenchSim benchmarks the simulator itself: it times the dense and
// idle-skip schedulers over a kernel × core-count grid — plus paper-scale
// big-N points and the §5 sum on 3 072 cores, which skip the slow dense leg —
// cross-checking on every point that both schedulers produce identical
// simulation results, and writes the report to BENCH_machine.json — the
// performance trajectory future changes to the hot loop are diffed against. With -against it additionally compares the
// fresh measurement to a baseline report and exits non-zero on a regression;
// -cpuprofile/-memprofile capture pprof profiles of the measurement so the
// next optimisation round starts from evidence.
func cmdBenchSim(args []string) error {
	fs := flag.NewFlagSet("bench-sim", flag.ContinueOnError)
	kernels := fs.String("kernels", "", "kernel selectors (default: the standard trajectory trio)")
	n := fs.Int("n", 0, "dataset size (0 = grid default)")
	cores := fs.String("cores", "", "comma-separated core counts (default: grid default)")
	seed := fs.Uint64("seed", 1, "workload seed")
	runs := fs.Int("runs", 0, "timing repetitions per point and scheduler, best wins (0 = grid default)")
	bigns := fs.String("bigns", "", "comma-separated paper-scale sizes for the big-N points (\"none\" disables them and the 3072-core sum; empty = grid default)")
	out := fs.String("o", "BENCH_machine.json", "report output path (empty: print table only)")
	quick := fs.Bool("quick", false, "seconds-scale grid for CI smoke runs")
	verify := fs.String("verify", "", "load and print an existing report instead of measuring")
	against := fs.String("against", "", "baseline report to diff the fresh measurement against (benchstat-style; non-zero exit on regression)")
	tolerance := fs.Float64("tolerance", bench.DefaultTolerance, "relative idle-skip ns/cycle growth tolerated by -against before it fails (0 = any growth fails; negative = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the measurement to this file")
	memprofile := fs.String("memprofile", "", "write a pprof allocation profile taken after the measurement to this file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *against != "" {
		// A compare run must not clobber the baseline it is judged against:
		// with -against, the report is only written where -o says explicitly.
		explicitOut := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "o" {
				explicitOut = true
			}
		})
		if !explicitOut {
			*out = ""
		}
	}

	if *verify != "" {
		rep, err := bench.Load(*verify)
		if err != nil {
			return err
		}
		fmt.Printf("%s: schema %s\n", *verify, rep.Schema)
		fmt.Print(rep.Table())
		return nil
	}

	g := bench.DefaultGrid()
	if *quick {
		g = bench.QuickGrid()
	}
	if *kernels != "" {
		g.Kernels = strings.Split(*kernels, ",")
	}
	if *n > 0 {
		g.N = *n
	}
	if *cores != "" {
		cs, err := parseSizes(*cores)
		if err != nil {
			return err
		}
		g.Cores = cs
	}
	if *runs > 0 {
		g.Runs = *runs
	}
	g.Seed = *seed
	if *bigns != "" {
		if strings.EqualFold(*bigns, "none") {
			// Nothing that skips the dense leg: the big-N points and the wide sum.
			g.BigNs, g.WideSums = nil, nil
		} else {
			bns, err := parseSizes(*bigns)
			if err != nil {
				return err
			}
			g.BigNs = bns
		}
	}

	var baseline *bench.Report
	if *against != "" {
		// Load before measuring, so a bad baseline path fails fast.
		b, err := bench.Load(*against)
		if err != nil {
			return err
		}
		baseline = b
	}

	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}

	rep, err := bench.Measure(g)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil && err == nil {
			err = cerr // a truncated profile must not exit 0
		}
	}
	if err != nil {
		return err
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC() // flush the final allocation statistics
		werr := pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}

	fmt.Print(rep.Table())
	if baseline != nil {
		cmp := bench.Compare(baseline, rep, *tolerance)
		fmt.Printf("\nvs %s:\n%s", *against, cmp.Table())
		if err := cmp.Err(); err != nil {
			// A regressing run must not write its report: with
			// -against X -o X that would replace the baseline with the
			// regressed numbers, and the next run would pass vacuously.
			return err
		}
	}
	if *out != "" {
		if err := rep.Write(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench-sim: report written to %s\n", *out)
	}
	return nil
}
