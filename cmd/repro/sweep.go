package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/pbbs"
	"repro/internal/sweep"
)

// newEngine builds the measurement engine sweep, serve and worker share: a
// bounded number of concurrent points, a warm-machine pool, and the
// content-keyed result cache unless cacheDir is empty.
func newEngine(workers int, cacheDir string) (*sweep.Engine, error) {
	eng := &sweep.Engine{Workers: workers, Pool: machine.NewPool()}
	if cacheDir != "" {
		var err error
		if eng.Cache, err = sweep.NewCache(cacheDir); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// parseShortcutAxis resolves the -shortcut flag into the sweep axis.
func parseShortcutAxis(s string) ([]bool, error) {
	var out []bool
	for _, f := range strings.Split(s, ",") {
		switch strings.TrimSpace(f) {
		case "on", "true", "1":
			out = append(out, true)
		case "off", "false", "0":
			out = append(out, false)
		case "both":
			out = append(out, true, false)
		default:
			return nil, fmt.Errorf("bad -shortcut value %q (want on|off|both)", f)
		}
	}
	return out, nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	kernels := fs.String("kernels", "all", "kernel selectors: IDs or name substrings, comma-separated")
	sizes := fs.String("sizes", "64", "comma-separated dataset sizes")
	cores := fs.String("cores", "1,4,16", "comma-separated core counts")
	topos := fs.String("topos", "crossbar", "comma-separated NoC topologies (crossbar,ring,mesh)")
	shortcut := fs.String("shortcut", "on", "call-level shortcut axis: on, off or both")
	maxsec := fs.String("maxsec", "0", "comma-separated MaxSectionsPerCore caps (0 = spread)")
	seed := fs.Uint64("seed", 1, "workload seed")
	workers := fs.Int("workers", 0, "measurement workers (0 = GOMAXPROCS)")
	out := fs.String("o", "", "write results incrementally to this JSONL file")
	cacheDir := fs.String("cache", ".sweep-cache", "result cache directory (empty disables caching)")
	baseline := fs.String("baseline", "", "baseline sweep JSONL to diff against")
	against := fs.String("against", "", "diff -baseline against this sweep file instead of running")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	// Pure diff mode: two existing files, no simulation.
	if *against != "" {
		if *baseline == "" {
			return fmt.Errorf("-against needs -baseline")
		}
		base, err := sweep.ReadFile(*baseline)
		if err != nil {
			return err
		}
		cur, err := sweep.ReadFile(*against)
		if err != nil {
			return err
		}
		fmt.Printf("sweep diff — baseline %s vs %s\n", *baseline, *against)
		fmt.Print(sweep.DiffTable(sweep.Diff(base, cur)))
		return nil
	}

	ks, err := pbbs.FindAll(*kernels)
	if err != nil {
		return err
	}
	spec := &sweep.Spec{Seed: *seed}
	for _, k := range ks {
		spec.Kernels = append(spec.Kernels, k.ID)
	}
	if spec.Sizes, err = parseSizes(*sizes); err != nil {
		return err
	}
	if spec.Cores, err = parseSizes(*cores); err != nil {
		return err
	}
	for _, t := range strings.Split(*topos, ",") {
		spec.Topologies = append(spec.Topologies, strings.TrimSpace(t))
	}
	if spec.Shortcut, err = parseShortcutAxis(*shortcut); err != nil {
		return err
	}
	if spec.MaxSections, err = parseCaps(*maxsec); err != nil {
		return err
	}

	eng, err := newEngine(*workers, *cacheDir)
	if err != nil {
		return err
	}

	var jw *sweep.JSONLWriter
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		jw = sweep.NewJSONLWriter(f)
	}
	var emitErr error
	recs, runErr := eng.Run(spec, func(r sweep.Record) {
		if jw != nil && emitErr == nil {
			emitErr = jw.Write(r)
		}
	})
	if recs == nil && runErr != nil {
		return runErr // bad grid spec: nothing ran
	}
	if emitErr != nil {
		return emitErr
	}
	fmt.Print(sweep.Table(recs))
	ps := eng.Pool.Stats()
	fmt.Fprintf(os.Stderr, "sweep: %s; machines: %d built, %d reused, %d dropped\n", eng.Stats(), ps.Misses, ps.Hits, ps.Dropped)

	if *baseline != "" {
		base, err := sweep.ReadFile(*baseline)
		if err != nil {
			return err
		}
		fmt.Printf("\nsweep diff — baseline %s vs this run\n", *baseline)
		fmt.Print(sweep.DiffTable(sweep.Diff(base, recs)))
	}
	return runErr
}

// parseCaps parses the -maxsec axis: non-negative comma-separated ints.
func parseCaps(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -maxsec value %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
