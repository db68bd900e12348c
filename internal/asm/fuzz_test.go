package asm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
)

// forkSumListing is a whole program the way internal/progs builds one: a
// _start stub forking the paper's Fig. 5 sum over a reserved five-word vector.
const forkSumListing = `
_start: movq $t, %rdi
        movq $5, %rsi
        fork sum
        hlt
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
.data
t:      .space 40
tlen:   .quad 5
`

// FuzzAssemble is the assembler's untrusted-input contract: any text either
// assembles to a program whose data segment fits below the stack and whose
// Text was allocated at exactly its length, or is refused with an *Error
// naming a line of the text — never a panic, never an allocation sized by a
// number the segment cannot hold. Plain `go test`
// replays the seeds (the listings of this package's tests, a fork sum, and
// testdata/fuzz/FuzzAssemble); `go test -fuzz=FuzzAssemble` explores.
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{fig2Listing, forkListing, dataListing, commentListing,
		numberListing, setccListing, forkSumListing} {
		f.Add(src)
	}
	for _, c := range errorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			var pos *Error
			if !errors.As(err, &pos) {
				t.Fatalf("error without a position: %T %v", err, err)
			}
			if pos.Line < 1 || pos.Line > strings.Count(src, "\n")+1 || pos.Msg == "" {
				t.Fatalf("malformed position in %#v", pos)
			}
			return
		}
		if uint64(len(p.Data)) > isa.StackTop-isa.DataBase {
			t.Fatalf("a %d-byte data segment overlaps the stack", len(p.Data))
		}
		if cap(p.Text) != len(p.Text) {
			t.Fatalf("Text holds %d instructions in room for %d", len(p.Text), cap(p.Text))
		}
	})
}
