package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/bench"
)

// cmdBenchSim times the simulator's two schedulers against each other: it
// runs the fixed grid (kernel × core-count points, paper-scale big-N points
// and the §5 sum on 3 072 cores, the last two idle-skip only) under the dense
// and idle-skip schedulers, cross-checks on every point that both produce
// identical simulation results, prints the table and writes the report to
// BENCH_machine.json. Whether a change made the simulator faster or slower is
// not judged here but by the repository benchmark (`go run ./benchmark
// -compare`).
func cmdBenchSim(args []string) error {
	fs := flag.NewFlagSet("bench-sim", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "seconds-scale grid for CI smoke runs")
	out := fs.String("o", "BENCH_machine.json", "report output path (empty: print table only)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the measurement to this file")
	if err := parseFlags(fs, args); err != nil {
		return err
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

	rep, err := bench.Measure(*quick)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil && err == nil {
			err = cerr // a truncated profile must not exit 0
		}
	}
	if err != nil {
		return err
	}

	fmt.Print(rep.Table())
	if *out != "" {
		if err := rep.Write(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench-sim: report written to %s\n", *out)
	}
	return nil
}
