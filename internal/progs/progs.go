// Package progs holds the paper's reference listings and builders for the
// reproduction's standard workloads.
//
// SumCallBody is the paper's Fig. 2 (the gcc-style x86 translation of the C
// sum reduction, using call/ret) and SumForkBody is the paper's Fig. 5 (the
// same function with call/ret replaced by fork/endfork). Both assemble
// verbatim with internal/asm. Builders wrap the bodies with a driver and a
// data segment for a given input vector.
package progs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// SumCallBody is the paper's Fig. 2: the sum function in x86, call/ret
// version. Line comments match the paper.
const SumCallBody = `
sum:    cmpq $2, %rsi           # n>2
        ja .L2                  # if (n>2) goto .L2
        movq (%rdi), %rax       # rax=t[0]
        jne .L1                 # if (n!=2) goto .L1
        addq 8(%rdi), %rax      # rax+=t[1]
.L1:    ret                     # return (rax)
.L2:    pushq %rbx              # save rbx
        pushq %rdi              # save t
        pushq %rsi              # save n
        shrq %rsi               # rsi=n/2
        call sum                # sum(t,n/2)
        popq %rbx               # rbx=n
        pushq %rbx              # save n
        subq $8, %rsp           # allocate temp
        movq %rax, 0(%rsp)      # temp=sum(t,n/2)
        leaq (%rdi,%rsi,8), %rdi # rdi=&t[n/2]
        subq %rsi, %rbx         # rbx=n-n/2
        movq %rbx, %rsi         # rsi=n-n/2
        call sum                # sum(&t[n/2],n-n/2)
        addq 0(%rsp), %rax      # rax+=temp
        addq $8, %rsp           # free temp
        popq %rsi               # restore rsi (n)
        popq %rdi               # restore rdi (t)
        popq %rbx               # restore rbx
        ret                     # return rax
`

// SumForkBody is the paper's Fig. 5: the sum function modified by fork
// instructions. Line comments match the paper.
const SumForkBody = `
sum:    cmpq $2, %rsi           # n>2
        ja .L2                  # if (n>2) goto .L2
        movq (%rdi), %rax       # rax=t[0]
        jne .L1                 # if (n!=2) goto .L1
        addq 8(%rdi), %rax      # rax+=t[1]
.L1:    endfork                 # return (rax)
.L2:    movq %rsi, %rbx         # rbx=n
        shrq %rsi               # rsi=n/2
        fork sum                # sum(t,n/2)
        subq $8, %rsp           # allocate temp
        movq %rax, 0(%rsp)      # temp=sum(t,n/2)
        leaq (%rdi,%rsi,8), %rdi # rdi=&t[n/2]
        subq %rsi, %rbx         # rbx=n-n/2
        movq %rbx, %rsi         # rsi=n-n/2
        fork sum                # sum(&t[n/2],n-n/2)
        addq 0(%rsp), %rax      # rax+=temp
        addq $8, %rsp           # free temp
        endfork                 # return rax
`

// assembleWithVector assembles the listing src followed by a data segment
// defining t as the given vector and tlen as its length. The listing only
// reserves the vector; its words go straight into the assembled image, so a
// wide vector costs a copy, not a decimal print and parse of every element.
func assembleWithVector(src string, t []uint64) (*isa.Program, error) {
	p, err := asm.Assemble(fmt.Sprintf("%s\n.data\nt: .space %d\ntlen: .quad %d\n", src, 8*len(t), len(t)))
	if err != nil {
		return nil, err
	}
	words := p.Data[p.DataSyms["t"]-isa.DataBase:]
	for i, v := range t {
		binary.LittleEndian.PutUint64(words[8*i:], v)
	}
	return p, nil
}

// BuildSumCall assembles the Fig. 2 program with a driver calling sum(t, len(t)).
func BuildSumCall(t []uint64) (*isa.Program, error) {
	return assembleWithVector(fmt.Sprintf(`
_start: movq $t, %%rdi
        movq $%d, %%rsi
        call sum
        hlt
%s`, len(t), SumCallBody), t)
}

// BuildSumFork assembles the Fig. 5 program with a driver forking sum(t, len(t)).
// The driver's continuation (after the whole sum call tree) is the final hlt.
func BuildSumFork(t []uint64) (*isa.Program, error) {
	return assembleWithVector(fmt.Sprintf(`
_start: movq $t, %%rdi
        movq $%d, %%rsi
        fork sum
        hlt
%s`, len(t), SumForkBody), t)
}

// Vector returns the test vector [1, 2, ..., n], whose sum is n(n+1)/2.
func Vector(n int) []uint64 {
	t := make([]uint64, n)
	for i := range t {
		t[i] = uint64(i + 1)
	}
	return t
}

// VectorSum returns the expected reduction result for Vector(n).
func VectorSum(n int) uint64 { return uint64(n) * uint64(n+1) / 2 }

// FibForkBody is a second fork workload: the naive doubly-recursive
// Fibonacci, restructured with fork/endfork in the style of Fig. 5.
// fib(n) with n in rsi, result in rax; r12 holds n across the first fork
// (non-volatile, copied by fork).
const FibForkBody = `
fib:    cmpq $2, %rsi           # n >= 2 ?
        jae .F2
        movq %rsi, %rax         # fib(0)=0, fib(1)=1
        endfork
.F2:    movq %rsi, %r12         # r12 = n
        decq %rsi               # rsi = n-1
        fork fib                # fib(n-1)
        subq $8, %rsp           # allocate temp
        movq %rax, 0(%rsp)      # temp = fib(n-1)
        leaq -2(%r12), %rsi     # rsi = n-2
        fork fib                # fib(n-2)
        addq 0(%rsp), %rax      # rax += temp
        addq $8, %rsp           # free temp
        endfork
`

// FibCallBody is the call/ret version of FibForkBody, for ILP comparison.
const FibCallBody = `
fib:    cmpq $2, %rsi
        jae .F2
        movq %rsi, %rax
        ret
.F2:    pushq %r12
        movq %rsi, %r12
        decq %rsi
        call fib
        subq $8, %rsp
        movq %rax, 0(%rsp)
        leaq -2(%r12), %rsi
        call fib
        addq 0(%rsp), %rax
        addq $8, %rsp
        popq %r12
        ret
`

// BuildFibFork assembles the fork Fibonacci with a driver for fib(n).
func BuildFibFork(n int) (*isa.Program, error) {
	src := fmt.Sprintf(`
_start: movq $%d, %%rsi
        fork fib
        hlt
%s`, n, FibForkBody)
	return asm.Assemble(src)
}

// BuildFibCall assembles the call Fibonacci with a driver for fib(n).
func BuildFibCall(n int) (*isa.Program, error) {
	src := fmt.Sprintf(`
_start: movq $%d, %%rsi
        call fib
        hlt
%s`, n, FibCallBody)
	return asm.Assemble(src)
}

// Fib returns the expected Fibonacci value (fib(0)=0, fib(1)=1).
func Fib(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// MaxForkBody is a third fork workload: divide-and-conquer maximum of a
// vector, exercising data-dependent conditional moves across sections.
const MaxForkBody = `
vmax:   cmpq $2, %rsi
        ja .M2
        movq (%rdi), %rax       # rax = t[0]
        jne .M1                 # n==1 ?
        cmpq 8(%rdi), %rax
        jae .M1
        movq 8(%rdi), %rax      # rax = t[1] if larger
.M1:    endfork
.M2:    movq %rsi, %rbx         # rbx = n
        shrq %rsi               # rsi = n/2
        fork vmax               # vmax(t, n/2)
        subq $8, %rsp
        movq %rax, 0(%rsp)      # temp = left max
        leaq (%rdi,%rsi,8), %rdi
        subq %rsi, %rbx
        movq %rbx, %rsi
        fork vmax               # vmax(&t[n/2], n-n/2)
        cmpq 0(%rsp), %rax
        jae .M3
        movq 0(%rsp), %rax      # rax = max(left, right)
.M3:    addq $8, %rsp
        endfork
`

// BuildMaxFork assembles the fork vector-max with a driver over t.
func BuildMaxFork(t []uint64) (*isa.Program, error) {
	return assembleWithVector(fmt.Sprintf(`
_start: movq $t, %%rdi
        movq $%d, %%rsi
        fork vmax
        hlt
%s`, len(t), MaxForkBody), t)
}
