package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

func TestCmdKernelsList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"kernels"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"quickSort", "histogram/counting", "lang", "minic", "go"} {
		if !strings.Contains(out, want) {
			t.Errorf("kernels listing missing %q:\n%s", want, out)
		}
	}
}

func TestCmdKernelsDump(t *testing.T) {
	out, err := capture(t, func() error { return cmdKernels([]string{"-dump", "quicksort", "-n", "8"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"unsigned long a[8];", // lowered at the requested size
		"unsigned long main(void)",
		"fork main", // fork-mode assembly is the default
		"lang=go",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	out, err = capture(t, func() error { return cmdKernels([]string{"-dump", "1", "-n", "8", "-mode", "call"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "call main") || !strings.Contains(out, "lang=minic") {
		t.Errorf("call-mode dump of a hand-written kernel:\n%s", out)
	}
}

func TestCmdKernelsUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad-flag", []string{"-bogus"}},
		{"unknown-selector", []string{"-dump", "nosuchkernel"}},
		{"ambiguous-selector", []string{"-dump", "deterministicHash"}},
		{"bad-mode", []string{"-dump", "2", "-mode", "jit"}},
		{"dump-and-vet", []string{"-dump", "2", "-vet"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := captureStderr(t, func() error { return cmdKernels(c.args) })
			if !errors.Is(err, errUsage) {
				t.Errorf("cmdKernels(%v) = %v, want errUsage", c.args, err)
			}
		})
	}
}

func TestCmdKernelsHelpFlag(t *testing.T) {
	_, err := captureStderr(t, func() error { return run([]string{"kernels", "-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(kernels -h) = %v, want flag.ErrHelp", err)
	}
}

func TestUsageMentionsKernels(t *testing.T) {
	out, err := captureStderr(t, func() error { return run([]string{"help"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "kernels") {
		t.Errorf("usage text does not mention the kernels command:\n%s", out)
	}
}
