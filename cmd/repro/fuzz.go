package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fuzzgen"
)

// cmdFuzz runs a differential fuzzing campaign: seeded random mini-C
// programs through the equivalence oracle (AST interpreter, emulator,
// idle-skip and dense machine, plus warm-Reset/pool re-runs), in parallel
// across workers, stopping at the first divergence. The failure is minimized
// to a small reproducer and both the original and minimized programs are
// written to disk. Exit status: 0 when every program agreed, 1 on a divergence.
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "base seed; program i checks Generate(seed+i)")
	count := fs.Int("count", 256, "programs to check (0 = unbounded, until -duration)")
	duration := fs.Duration("duration", 0, "stop after this long (0 = no time limit)")
	workers := fs.Int("workers", 0, "parallel oracle workers (0 = GOMAXPROCS)")
	minimize := fs.Bool("minimize", true, "shrink the first failure to a minimal reproducer")
	outDir := fs.String("o", ".", "directory for reproducer files")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *count < 0 {
		return usageErrf("fuzz: -count must be >= 0")
	}
	if *count == 0 && *duration <= 0 {
		return usageErrf("fuzz: -count 0 (unbounded) requires -duration")
	}
	nw := *workers
	if nw < 0 {
		return usageErrf("fuzz: -workers must be >= 0")
	}
	if nw == 0 {
		nw = runtime.GOMAXPROCS(0)
	}

	var deadline time.Time
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	var (
		next     atomic.Uint64 // next program index to claim
		checked  atomic.Uint64
		stop     atomic.Bool
		firstMu  sync.Mutex
		first    *fuzzgen.Failure
		firstIdx uint64
	)
	report := func(idx uint64, f *fuzzgen.Failure) {
		stop.Store(true)
		firstMu.Lock()
		defer firstMu.Unlock()
		// Keep the lowest-index failure for a deterministic -count run.
		if first == nil || idx < firstIdx {
			first, firstIdx = f, idx
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &fuzzgen.Oracle{}
			for !stop.Load() {
				idx := next.Add(1) - 1
				if *count > 0 && idx >= uint64(*count) {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				p := fuzzgen.Generate(*seed + idx)
				if f := o.CheckProgram(p); f != nil {
					report(idx, f)
					return
				}
				checked.Add(1)
			}
		}()
	}
	wg.Wait()

	if first == nil {
		fmt.Printf("fuzz: %d programs agree across all substrates (seeds %d..%d, %d workers)\n",
			checked.Load(), *seed, *seed+next.Load()-1, nw)
		return nil
	}

	fmt.Fprintf(os.Stderr, "fuzz: divergence at seed %d after %d clean programs\n",
		first.Seed, checked.Load())
	path, err := writeRepro(*outDir, fmt.Sprintf("fuzz-%d.c", first.Seed), first)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fuzz: reproducer written to %s\n", path)

	if *minimize {
		min := minimizeFailure(first)
		mpath, err := writeRepro(*outDir, fmt.Sprintf("fuzz-%d.min.c", first.Seed), min)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fuzz: minimized %d -> %d bytes, written to %s\n",
			len(first.Source), len(min.Source), mpath)
	}
	return first
}

// minimizeFailure shrinks a failing program, preserving the failure stage:
// a mismatch must still mismatch, a machine fault must still fault. The
// returned Failure carries the minimized source and its (re-checked) detail.
func minimizeFailure(f *fuzzgen.Failure) *fuzzgen.Failure {
	o := &fuzzgen.Oracle{}
	src := fuzzgen.Minimize(f.Source, func(s string) bool {
		g := o.Check(s, f.Cores)
		return g != nil && g.Stage == f.Stage
	})
	min := o.Check(src, f.Cores)
	if min == nil {
		return f // cannot happen: keep held at every step
	}
	min.Seed = f.Seed
	return min
}

// writeRepro writes a failure as a compilable .c file: the mini-C source
// prefixed with //-comment metadata (seed, cores, stage, detail).
func writeRepro(dir, name string, f *fuzzgen.Failure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	body := fmt.Sprintf("// repro fuzz reproducer\n// seed: %d\n// cores: %d\n// stage: %s\n// detail: %s\n\n%s",
		f.Seed, f.Cores, f.Stage, f.Detail, f.Source)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
