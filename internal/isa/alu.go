package isa

import "errors"

// This file is the ISA's integer arithmetic, written once. Its one caller is
// Exec (exec.go), which the functional emulator and every evaluating stage of
// the machine run for each data instruction.

// ALU evaluates the arithmetic of one integer instruction. a is the old
// value of the destination operand and b the value of the source operand
// (ignored by the one-operand forms NEG, NOT, INC and DEC). It returns the
// result, the condition flags, and whether the instruction writes Flags at
// all (IMUL and NOT leave them untouched). CMP and TEST return the result of
// the SUB or AND they are defined by; callers drop it (Op.DiscardsResult).
// Shift counts are masked to their low 6 bits. Any other opcode panics: it
// has no ALU semantics, and passing one is a caller bug.
func ALU(op Op, a, b uint64) (r uint64, fl FlagsVal, writesFlags bool) {
	switch op {
	case ADD:
		r = a + b
		return r, flagsAdd(a, b, r), true
	case SUB, CMP:
		r = a - b
		return r, flagsSub(a, b, r), true
	case AND, TEST:
		r = a & b
	case OR:
		r = a | b
	case XOR:
		r = a ^ b
	case SHL:
		r = a << (b & 63)
	case SHR:
		r = a >> (b & 63)
	case SAR:
		r = uint64(int64(a) >> (b & 63))
	case IMUL:
		return uint64(int64(a) * int64(b)), 0, false
	case NOT:
		return ^a, 0, false
	case NEG:
		return ALU(SUB, 0, a)
	case INC:
		return ALU(ADD, a, 1)
	case DEC:
		return ALU(SUB, a, 1)
	default:
		panic("isa: ALU called with non-ALU opcode " + op.String())
	}
	return r, flagsLogic(r), true
}

// DiscardsResult reports whether op is CMP or TEST: ALU ops evaluated for
// their flags alone, whose destination operand is left unwritten.
func (o Op) DiscardsResult() bool { return o == CMP || o == TEST }

// The faults a divide can raise.
var (
	ErrDivideByZero = errors.New("division by zero")
	// 128-bit dividends are out of scope for the reproduction's workloads;
	// mini-C always clears rdx (divq) or sign-extends into it (cqto; idivq).
	ErrDivWideDividend  = errors.New("divq with non-zero rdx (128-bit dividend unsupported)")
	ErrIdivWideDividend = errors.New("idivq with rdx not the sign extension of rax")
)

// Divide evaluates divq (op DIV, unsigned) or idivq (op IDIV, signed) of the
// dividend rdx:rax by d, returning the quotient (destined for rax) and the
// remainder (destined for rdx).
func Divide(op Op, rax, rdx, d uint64) (quot, rem uint64, err error) {
	if d == 0 {
		return 0, 0, ErrDivideByZero
	}
	if op == DIV {
		if rdx != 0 {
			return 0, 0, ErrDivWideDividend
		}
		return rax / d, rax % d, nil
	}
	num := int64(rax)
	if int64(rdx) != num>>63 {
		return 0, 0, ErrIdivWideDividend
	}
	return uint64(num / int64(d)), uint64(num % int64(d)), nil
}

// flagsSub returns the condition flags of a - b with result r.
func flagsSub(a, b, r uint64) FlagsVal {
	f := flagsLogic(r)
	if a < b {
		f |= FlagC
	}
	if (int64(a) < 0) != (int64(b) < 0) && (int64(r) < 0) != (int64(a) < 0) {
		f |= FlagO
	}
	return f
}

// flagsAdd returns the condition flags of a + b with result r.
func flagsAdd(a, b, r uint64) FlagsVal {
	f := flagsLogic(r)
	if r < a {
		f |= FlagC
	}
	if (int64(a) < 0) == (int64(b) < 0) && (int64(r) < 0) != (int64(a) < 0) {
		f |= FlagO
	}
	return f
}

// flagsLogic returns the condition flags of a logical result r
// (and/or/xor/test/shifts): zero and sign from r, carry and overflow cleared.
func flagsLogic(r uint64) FlagsVal {
	var f FlagsVal
	if r == 0 {
		f |= FlagZ
	}
	if int64(r) < 0 {
		f |= FlagS
	}
	return f
}
