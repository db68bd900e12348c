// Command repro exercises the whole reproduction stack from the command
// line:
//
//	repro ilp      — regenerate the paper's Fig. 7: trace-dataflow ILP of
//	                 the ten kernels under the sequential and parallel
//	                 dependence models (batch-measured, -workers at a time),
//	                 each emulator run checked against its Go reference
//	repro machine  — cross-validate kernels on the cycle-level many-core
//	                 simulator against the emulator and report cycles/IPC
//	repro analytic — print the Section 5 closed-form scaling table for the
//	                 sum reduction
//	repro sweep    — the scaling laboratory: run the machine across the
//	                 cross-product of kernel × size × cores × NoC topology ×
//	                 shortcut × placement cap, with a content-keyed result
//	                 cache, streaming JSONL output and baseline diffing
//	repro serve    — simulation as a service: a long-running HTTP job server
//	                 over the sweep engine and cache (submit sweeps and runs,
//	                 poll status, stream JSONL results, browse catalogs); also
//	                 the fabric coordinator — sweeps shard across registered
//	                 workers, falling back to local execution with none
//	repro worker   — fabric worker: register with a coordinator, lease grid
//	                 points, measure them locally and report the records back
//	repro kernels  — the kernel front end: list the catalog (with source
//	                 language) or dump a kernel's generated mini-C + assembly
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/analytic"
	"repro/internal/pbbs"
)

// errUsage marks a bad invocation (unknown command, malformed flags): usage
// has already been printed and the process should exit 2. It is a sentinel
// so that every exit flows through main's single exit path — subcommands and
// usage never call os.Exit themselves, which would skip deferred cleanup
// (flushing output files, graceful server shutdown) and be untestable.
var errUsage = errors.New("usage error")

// kernelSelUsage is the help text of the kernel selector flags (ilp and
// machine -kernel, sweep -kernels), which all resolve through pbbs.FindAll.
const kernelSelUsage = "kernel selectors: IDs or name substrings, comma-separated"

func usage() {
	fmt.Fprintf(os.Stderr, `usage: repro <command> [flags]

commands:
  ilp        print the Fig. 7 table (sequential vs parallel trace ILP)
  machine    cross-validate kernels on the many-core simulator
  analytic   print the Section 5 scaling table
  sweep      scaling laboratory: sweep cores × topology × shortcut × cap
  serve      HTTP job server over the sweep engine and result cache;
             doubles as the sweep-fabric coordinator
  worker     fabric worker: lease sweep points from a coordinator
  kernels    list the kernel catalog or dump a kernel's generated mini-C

run "repro <command> -h" for the flags of each command.
`)
}

// parseFlags folds flag.FlagSet outcomes into the shared exit paths: nil on
// success, flag.ErrHelp after -h/-help (exit 0; flag printed the defaults),
// errUsage on a malformed flag (exit 2; flag printed the problem). Flag sets
// must be created with flag.ContinueOnError so that this function, not the
// flag package, decides how the process exits.
func parseFlags(fs *flag.FlagSet, args []string) error {
	switch err := fs.Parse(args); {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return flag.ErrHelp
	default:
		return errUsage
	}
}

// exitCode maps run's error to the process exit status: 0 on success and
// after help, 2 for usage errors, 1 for runtime failures (which it prints).
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		return 1
	}
}

func main() {
	os.Exit(exitCode(run(os.Args[1:])))
}

// run dispatches the subcommand and returns rather than exits, so the whole
// CLI surface — including the unknown-command path — is testable and
// deferred cleanup always runs.
func run(args []string) error {
	if len(args) < 1 {
		usage()
		return errUsage
	}
	switch cmd := args[0]; cmd {
	case "ilp":
		return cmdILP(args[1:])
	case "machine":
		return cmdMachine(args[1:])
	case "analytic":
		return cmdAnalytic(args[1:])
	case "sweep":
		return cmdSweep(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "worker":
		return cmdWorker(args[1:])
	case "kernels":
		return cmdKernels(args[1:])
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown command %q\n", cmd)
		usage()
		return errUsage
	}
}

// usageErrf reports a bad invocation on stderr and returns errUsage, so the
// process exits 2 like any other malformed command line — exitCode prints
// nothing for errUsage, hence the message here.
func usageErrf(format string, args ...any) error {
	fmt.Fprintf(os.Stderr, "repro: "+format+"\n", args...)
	return errUsage
}

// parseInts parses flag name's comma-separated whole decimal numbers, each at
// least min. A malformed entry is a usage error naming the flag.
func parseInts(name, s string, min int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < min {
			return nil, usageErrf("bad %s value %q (want whole numbers of at least %d)", name, f, min)
		}
		out = append(out, n)
	}
	return out, nil
}

func cmdILP(args []string) error {
	fs := flag.NewFlagSet("ilp", flag.ContinueOnError)
	sizes := fs.String("sizes", "32,64,128", "comma-separated dataset sizes")
	seed := fs.Uint64("seed", 1, "workload seed")
	workers := fs.Int("workers", 0, "measurement workers (0 = GOMAXPROCS)")
	kernels := fs.String("kernel", "all", kernelSelUsage)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ns, err := parseInts("-sizes", *sizes, 1)
	if err != nil {
		return err
	}
	ks, err := pbbs.FindAll(*kernels)
	if err != nil {
		return err
	}
	points, err := pbbs.MeasureAll(ks, ns, *seed, *workers)
	if len(points) > 0 {
		fmt.Println("Fig. 7 — trace-dataflow ILP, sequential vs parallel dependence model")
		fmt.Print(pbbs.Fig7Table(points))
	}
	return err
}

func cmdMachine(args []string) error {
	fs := flag.NewFlagSet("machine", flag.ContinueOnError)
	n := fs.Int("n", 12, "dataset size (kept small: cycle-level simulation)")
	seed := fs.Uint64("seed", 1, "workload seed")
	cores := fs.Int("cores", 8, "simulated cores")
	kernels := fs.String("kernel", "all", kernelSelUsage)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *cores < 1 {
		return usageErrf("machine: bad -cores %d (want at least 1)", *cores)
	}
	ks, err := pbbs.FindAll(*kernels)
	if err != nil {
		return err
	}
	fmt.Printf("%-3s %-40s %8s %10s %10s %9s %9s %s\n",
		"#", "benchmark", "n", "instr", "cycles", "IPC", "sections", "status")
	failed := false
	for _, k := range ks {
		kn := k.ClampN(*n)
		rm, err := k.CrossValidate(*n, *seed, *cores)
		if err != nil {
			fmt.Printf("%-3d %-40s %8d %10s %10s %9s %9s FAIL: %v\n",
				k.ID, k.Name, kn, "-", "-", "-", "-", err)
			failed = true
			continue
		}
		ipc := float64(rm.Instructions) / float64(rm.Cycles)
		fmt.Printf("%-3d %-40s %8d %10d %10d %9.2f %9d ok (rax and memory match emulator)\n",
			k.ID, k.Name, kn, rm.Instructions, rm.Cycles, ipc, len(rm.Machine.Sections))
	}
	if failed {
		return fmt.Errorf("machine/emulator divergence")
	}
	return nil
}

func cmdAnalytic(args []string) error {
	fs := flag.NewFlagSet("analytic", flag.ContinueOnError)
	maxN := fs.Int("maxn", 8, "largest doubling step (0..57)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// The instruction count, 59·2ⁿ − 14, leaves int64 at n = 58 (the element
	// count 5·2ⁿ at n = 61).
	if *maxN < 0 || *maxN > 57 {
		return usageErrf("analytic: -maxn %d out of range (0..57)", *maxN)
	}
	fmt.Println("Section 5 — closed-form scaling of the fork sum over 5·2ⁿ elements")
	fmt.Printf("%3s %10s %14s %11s %12s %10s %11s %10s\n",
		"n", "elements", "instructions", "fetch(cyc)", "retire(cyc)", "fetchIPC", "retireIPC", "sections")
	for _, r := range analytic.Table(*maxN) {
		fmt.Printf("%3d %10d %14d %11d %12d %10.1f %11.1f %10d\n",
			r.N, r.Elements, r.Instructions, r.FetchTime, r.RetireTime, r.FetchIPC, r.RetireIPC, r.Sections)
	}
	return nil
}
