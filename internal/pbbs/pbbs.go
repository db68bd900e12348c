// Package pbbs implements the reproduction's stand-in for the Problem Based
// Benchmark Suite used by the paper's Fig. 7 (Table 1): the same ten
// algorithms plus one extra (histogram, #11), written in mini-C, compiled to
// the reproduction ISA, run on the functional emulator with trace capture,
// and analysed with the internal/ilp dependence models.
//
// The paper traces the original C++ PBBS programs with gcc-generated x86;
// that substrate is not available here, so each kernel is re-implemented in
// mini-C over the same algorithm (see DESIGN.md's substitution table). The
// quantity Fig. 7 plots — trace-dataflow ILP under the sequential and
// parallel dependence models — depends only on the dynamic dependence
// structure of the algorithm, which these kernels preserve.
//
// Every kernel's mini-C main returns a checksum that the harness validates
// against a pure-Go reference implementation, so the compiler, emulator and
// workload generators are cross-checked on every run.
//
// Kernels self-register at package init (Register), so adding a workload is
// a one-file drop-in: define Source/Gen/Ref, call Register, and the batch
// harness, the CLI and the cross-validation tests pick it up.
package pbbs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/ilp"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/trace"
)

// rng is a small deterministic xorshift64* generator so that workloads are
// reproducible across runs and platforms.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// uintn returns a value in [0, n).
func (r *rng) uintn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// Inputs maps data-segment symbols to the 64-bit words to inject before the
// run.
type Inputs = backend.Inputs

// Source languages a kernel can be defined in.
const (
	// LangMiniC marks a hand-written mini-C kernel (a Go template
	// producing mini-C source directly).
	LangMiniC = "minic"
	// LangGo marks a kernel defined as annotated Go and lowered to mini-C
	// by internal/gofront.
	LangGo = "go"
)

// Kernel is one benchmark of Table 1.
type Kernel struct {
	// ID is the paper's benchmark number (1..10 for Table 1; additions
	// beyond the paper count on — the registry holds eleven).
	ID int
	// Name is the paper's "suite/implementation" label.
	Name string
	// MinN is the smallest dataset size the kernel supports.
	MinN int
	// Lang is the source language the kernel is defined in (LangMiniC for
	// hand-written mini-C, LangGo for gofront-lowered annotated Go).
	Lang string
	// Source generates the mini-C program for a dataset of n elements.
	// Hand-written kernels cannot fail; lowered kernels can (an annotation
	// expression may not evaluate at this n).
	Source func(n int) (string, error)
	// Gen generates the input arrays for a dataset of n elements.
	Gen func(n int, seed uint64) Inputs
	// Ref computes the expected checksum from the inputs.
	Ref func(n int, in Inputs) (uint64, error)
}

// staticSource adapts an infallible mini-C source template to the Kernel
// Source signature.
func staticSource(f func(n int) string) func(int) (string, error) {
	return func(n int) (string, error) { return f(n), nil }
}

// staticRef adapts an infallible reference checksum to the Kernel Ref
// signature.
func staticRef(f func(n int, in Inputs) uint64) func(int, Inputs) (uint64, error) {
	return func(n int, in Inputs) (uint64, error) { return f(n, in), nil }
}

// registry holds the self-registered kernels, keyed by benchmark number.
var registry = make(map[int]*Kernel)

// Register adds a kernel to the suite. It is called from package init
// functions (one per kernel file) and panics on malformed or duplicate
// registrations, since either is a programming error.
func Register(k *Kernel) {
	switch {
	case k == nil:
		panic("pbbs: Register(nil)")
	case k.ID <= 0:
		panic(fmt.Sprintf("pbbs: kernel %q has non-positive ID %d", k.Name, k.ID))
	case k.Name == "":
		panic(fmt.Sprintf("pbbs: kernel %d has no name", k.ID))
	case k.Source == nil || k.Gen == nil || k.Ref == nil:
		panic(fmt.Sprintf("pbbs: kernel %d (%s) is missing Source/Gen/Ref", k.ID, k.Name))
	}
	if prev, dup := registry[k.ID]; dup {
		panic(fmt.Sprintf("pbbs: duplicate benchmark ID %d (%s and %s)", k.ID, prev.Name, k.Name))
	}
	if k.MinN <= 0 {
		k.MinN = 4
	}
	if k.Lang == "" {
		k.Lang = LangMiniC
	}
	registry[k.ID] = k
}

// Kernels returns the registered benchmarks in the paper's (ID) order.
func Kernels() []*Kernel {
	ks := make([]*Kernel, 0, len(registry))
	for _, k := range registry {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].ID < ks[j].ID })
	return ks
}

// Info is the exported catalog metadata of one kernel: what a serving layer
// or UI needs to list the Table 1 suite without holding the Kernel itself.
type Info struct {
	// ID is the kernel's benchmark number (the paper's 1..10, then 11 for
	// the histogram extra).
	ID int `json:"id"`
	// Name is the paper's "suite/implementation" label.
	Name string `json:"name"`
	// MinN is the smallest dataset size the kernel supports; requested
	// sizes below it are clamped up to it.
	MinN int `json:"minN"`
	// Lang is the language the kernel is defined in ("minic" for
	// hand-written mini-C, "go" for gofront-lowered annotated Go).
	Lang string `json:"lang"`
}

// Catalog returns the registered benchmarks' metadata in the paper's (ID)
// order. The job server serves it at /v1/kernels.
func Catalog() []Info {
	ks := Kernels()
	infos := make([]Info, len(ks))
	for i, k := range ks {
		infos[i] = Info{ID: k.ID, Name: k.Name, MinN: k.MinN, Lang: k.Lang}
	}
	return infos
}

// ByID returns the kernel with the paper's benchmark number.
func ByID(id int) (*Kernel, error) {
	if k, ok := registry[id]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("pbbs: no benchmark %d", id)
}

// Find resolves a kernel selector: a benchmark number ("2") or a
// case-insensitive substring of the kernel name ("quicksort"). A selector
// matching several kernels is an error listing the candidates.
func Find(sel string) (*Kernel, error) {
	sel = strings.TrimSpace(sel)
	if id, err := strconv.Atoi(sel); err == nil {
		return ByID(id)
	}
	var hits []*Kernel
	low := strings.ToLower(sel)
	for _, k := range Kernels() {
		if strings.Contains(strings.ToLower(k.Name), low) {
			hits = append(hits, k)
		}
	}
	switch len(hits) {
	case 1:
		return hits[0], nil
	case 0:
		return nil, fmt.Errorf("pbbs: no benchmark matches %q", sel)
	}
	names := make([]string, len(hits))
	for i, k := range hits {
		names[i] = k.Name
	}
	return nil, fmt.Errorf("pbbs: %q is ambiguous: %s", sel, strings.Join(names, ", "))
}

// FindAll resolves a comma-separated kernel selector list ("quicksort,bfs",
// "1,2,5"). The empty string and "all" select every registered kernel.
func FindAll(sels string) ([]*Kernel, error) {
	sels = strings.TrimSpace(sels)
	if sels == "" || sels == "all" {
		return Kernels(), nil
	}
	var ks []*Kernel
	seen := make(map[int]bool)
	for _, sel := range strings.Split(sels, ",") {
		k, err := Find(sel)
		if err != nil {
			return nil, err
		}
		if !seen[k.ID] {
			seen[k.ID] = true
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].ID < ks[j].ID })
	return ks, nil
}

// ClampN returns the dataset size the kernel actually runs at for a
// requested n: n itself, or MinN when n is below the kernel's minimum.
func (k *Kernel) ClampN(n int) int {
	if n < k.MinN {
		return k.MinN
	}
	return n
}

// Build compiles the kernel for a dataset size in the given calling
// convention (ModeCall for the emulator, ModeFork for the machine).
func (k *Kernel) Build(n int, mode minic.Mode) (*isa.Program, error) {
	src, err := k.Source(k.ClampN(n))
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s: %w", k.Name, err)
	}
	return minic.Compile(src, mode)
}

// RunResult is the outcome of one kernel execution on the emulator.
type RunResult struct {
	Kernel   *Kernel // the benchmark that ran
	N        int     // effective (clamped) dataset size
	Checksum uint64  // the mini-C program's result (rax)
	Expected uint64  // the pure-Go reference checksum
	Steps    int64   // dynamic instructions
}

// Run compiles the kernel in call mode, executes it on the sequential
// emulator, handing the dynamic trace batch by batch to sink when it is not
// nil (backend.Emulator.Stream), and validates the checksum against the Go
// reference.
func (k *Kernel) Run(n int, seed uint64, sink func([]trace.Record)) (*RunResult, error) {
	n = k.ClampN(n)
	prog, err := k.Build(n, minic.ModeCall)
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s (n=%d): %w", k.Name, n, err)
	}
	in := k.Gen(n, seed)
	r, err := backend.NewEmulator().Stream(prog, in, sink)
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s (n=%d): %w", k.Name, n, err)
	}
	want, err := k.Ref(n, in)
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s (n=%d): reference: %w", k.Name, n, err)
	}
	res := &RunResult{Kernel: k, N: n, Checksum: r.RAX, Expected: want, Steps: r.Instructions}
	if res.Checksum != res.Expected {
		return res, fmt.Errorf("pbbs: %s (n=%d): checksum %d, reference %d", k.Name, n, res.Checksum, res.Expected)
	}
	return res, nil
}

// CrossValidate compiles the kernel in fork mode and runs it with identical
// inputs on the sequential emulator and on the paper-calibrated default
// machine of the given core count, checking that both agree on the final rax
// and the full data segment, and that the result matches the Go reference
// checksum. It returns the machine result.
func (k *Kernel) CrossValidate(n int, seed uint64, cores int) (*backend.Result, error) {
	n = k.ClampN(n)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s (n=%d): %w", k.Name, n, err)
	}
	in := k.Gen(n, seed)
	_, rm, err := backend.CrossValidate(prog, in, machine.DefaultConfig(cores))
	if err != nil {
		return rm, fmt.Errorf("pbbs: %s (n=%d): %w", k.Name, n, err)
	}
	want, err := k.Ref(n, in)
	if err != nil {
		return rm, fmt.Errorf("pbbs: %s (n=%d): reference: %w", k.Name, n, err)
	}
	if rm.RAX != want {
		return rm, fmt.Errorf("pbbs: %s (n=%d): machine checksum %d, reference %d",
			k.Name, n, rm.RAX, want)
	}
	return rm, nil
}

// ILPPoint is one bar of Fig. 7: a kernel at a dataset size under both
// dependence models.
type ILPPoint struct {
	Kernel       *Kernel
	N            int
	Instructions int
	SeqILP       float64
	ParILP       float64
}

// Speedup returns the parallel-over-sequential ILP ratio the paper
// highlights ("the potential of the parallel model").
func (p *ILPPoint) Speedup() float64 {
	if p.SeqILP == 0 {
		return 0
	}
	return p.ParILP / p.SeqILP
}

// MeasureILP runs the kernel on the emulator and analyses its trace under the
// paper's sequential and parallel models as it is produced: one ilp.Fig7
// steps both models over each batch of records on Emulator.Stream's second
// goroutine, and no trace is stored, so a point's memory is the words it
// touches, not the instructions it runs.
func (k *Kernel) MeasureILP(n int, seed uint64) (*ILPPoint, error) {
	a := ilp.NewFig7()
	res, err := k.Run(n, seed, a.Step)
	if err != nil {
		return nil, err
	}
	seq, par := a.Results()
	return &ILPPoint{
		Kernel:       k,
		N:            res.N,
		Instructions: int(res.Steps),
		SeqILP:       seq.ILP,
		ParILP:       par.ILP,
	}, nil
}
