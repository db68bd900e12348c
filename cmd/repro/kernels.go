package main

import (
	"flag"
	"fmt"

	"repro/internal/asm"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// cmdKernels is the front-end inspection surface: list the registered
// kernel catalog, or dump one kernel's generated mini-C (and assembly) at a
// concrete size.
func cmdKernels(args []string) error {
	fs := flag.NewFlagSet("kernels", flag.ContinueOnError)
	dump := fs.String("dump", "", "kernel selector: print its generated mini-C and assembly, then exit")
	n := fs.Int("n", 64, "dataset size for -dump")
	mode := fs.String("mode", "fork", `calling convention for -dump assembly: "call" (emulator) or "fork" (machine)`)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dump != "" {
		return kernelsDump(*dump, *n, *mode)
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
	prog, err := minic.Compile(src, m)
	if err != nil {
		return fmt.Errorf("kernels: %s: %w", k.Name, err)
	}
	fmt.Printf("// %s (#%d, lang=%s) at n=%d — generated mini-C\n%s\n", k.Name, k.ID, k.Lang, n, src)
	fmt.Printf("// %s at n=%d — %s-mode assembly\n%s", k.Name, n, mode, asm.Listing(prog))
	return nil
}
