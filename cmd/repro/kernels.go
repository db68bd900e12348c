package main

import (
	"flag"
	"fmt"

	"repro/internal/minic"
	"repro/internal/pbbs"
)

// cmdKernels is the front-end inspection surface: list the registered
// kernel catalog, dump one kernel's generated mini-C (and assembly) at a
// concrete size, or vet the whole suite by re-deriving every kernel and
// cross-checking it on both execution substrates.
func cmdKernels(args []string) error {
	fs := flag.NewFlagSet("kernels", flag.ContinueOnError)
	dump := fs.String("dump", "", "kernel selector: print its generated mini-C and assembly, then exit")
	vet := fs.Bool("vet", false, "re-derive and cross-check every kernel on emulator + machine")
	n := fs.Int("n", 64, "dataset size for -dump and -vet")
	seed := fs.Uint64("seed", 1, "workload seed for -vet")
	cores := fs.Int("cores", 4, "simulated cores for -vet's machine leg")
	mode := fs.String("mode", "fork", `calling convention for -dump assembly: "call" (emulator) or "fork" (machine)`)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dump != "" && *vet {
		return usageErrf("kernels: -dump and -vet are mutually exclusive")
	}
	if *cores < 1 {
		return usageErrf("kernels: bad -cores %d (want at least 1)", *cores)
	}
	switch {
	case *dump != "":
		return kernelsDump(*dump, *n, *mode)
	case *vet:
		return kernelsVet(*n, *seed, *cores)
	}
	return kernelsList()
}

// kernelsList prints the catalog: one row per registered kernel with its
// source language, mirroring what the server exposes at /v1/kernels.
func kernelsList() error {
	fmt.Printf("%-3s %-40s %-6s %5s\n", "#", "benchmark", "lang", "minN")
	for _, k := range pbbs.Kernels() {
		fmt.Printf("%-3d %-40s %-6s %5d\n", k.ID, k.Name, k.Lang, k.MinN)
	}
	return nil
}

// kernelsDump prints one kernel's generated mini-C at a concrete size, then
// the assembly the backend compiles it to. For annotated-Go kernels the
// mini-C is the gofront lowering — exactly the canonical text the golden
// tests pin.
func kernelsDump(sel string, n int, mode string) error {
	k, err := pbbs.Find(sel)
	if err != nil {
		return usageErrf("kernels: %v", err)
	}
	var m minic.Mode
	switch mode {
	case "call":
		m = minic.ModeCall
	case "fork":
		m = minic.ModeFork
	default:
		return usageErrf("kernels: bad -mode %q (want call or fork)", mode)
	}
	n = k.ClampN(n)
	src, err := k.Source(n)
	if err != nil {
		return err
	}
	prog, err := minic.Parse(src)
	if err != nil {
		return fmt.Errorf("kernels: %s: %w", k.Name, err)
	}
	if err := minic.Check(prog); err != nil {
		return fmt.Errorf("kernels: %s: %w", k.Name, err)
	}
	asm, err := minic.Generate(prog, m)
	if err != nil {
		return fmt.Errorf("kernels: %s: %w", k.Name, err)
	}
	fmt.Printf("// %s (#%d, lang=%s) at n=%d — generated mini-C\n%s\n", k.Name, k.ID, k.Lang, n, src)
	fmt.Printf("// %s at n=%d — %s-mode assembly\n%s", k.Name, n, mode, asm)
	return nil
}

// kernelsVet re-derives every registered kernel at its minimum size and at
// -n and cross-checks each derivation end to end: the source must be
// canonical (Format∘Parse fixpoint), the emulator run must match the
// reference checksum, and the many-core machine must agree with the
// emulator on rax and the full data segment. This is the CI gate that keeps
// Source, Gen and Ref honest for hand-written and lowered kernels alike.
func kernelsVet(n int, seed uint64, cores int) error {
	fmt.Printf("%-3s %-40s %6s %-6s %s\n", "#", "benchmark", "n", "lang", "status")
	failures := 0
	for _, k := range pbbs.Kernels() {
		sizes := []int{k.MinN}
		if cn := k.ClampN(n); cn != k.MinN {
			sizes = append(sizes, cn)
		}
		for _, size := range sizes {
			if err := vetKernelAt(k, size, seed, cores); err != nil {
				fmt.Printf("%-3d %-40s %6d %-6s FAIL: %v\n", k.ID, k.Name, size, k.Lang, err)
				failures++
				continue
			}
			fmt.Printf("%-3d %-40s %6d %-6s ok\n", k.ID, k.Name, size, k.Lang)
		}
	}
	if failures > 0 {
		return fmt.Errorf("kernels: vet failed for %d kernel/size pairs", failures)
	}
	return nil
}

// vetKernelAt is one vet probe: canonical-form check, emulator run against
// the reference, machine cross-validation against the emulator.
func vetKernelAt(k *pbbs.Kernel, n int, seed uint64, cores int) error {
	src, err := k.Source(n)
	if err != nil {
		return err
	}
	prog, err := minic.Parse(src)
	if err != nil {
		return fmt.Errorf("source does not parse: %w", err)
	}
	if canon := minic.Format(prog); k.Lang == pbbs.LangGo && canon != src {
		return fmt.Errorf("lowered source is not Format-canonical")
	}
	if _, err := k.Run(n, seed, nil); err != nil {
		return err
	}
	if _, err := k.CrossValidate(n, seed, cores); err != nil {
		return err
	}
	return nil
}
