package machine

import (
	"fmt"

	"repro/internal/isa"
)

// regSlot returns the index of d's result cell for register r in d.wr,
// claiming a cell on first use. An instruction writes at most maxWr registers
// (guaranteed by isa.Instruction.RegWrites); the array bound traps any
// violation.
func (m *Machine) regSlot(d *DynInst, r isa.Reg) int {
	for i := 0; i < int(d.nwr); i++ {
		if d.wrRegs[i] == r {
			return i
		}
	}
	i := int(d.nwr)
	d.wrRegs[i] = r
	d.wr[i] = m.newCell()
	d.nwr++
	return i
}

// regWritten reports whether d has already produced a result for r.
func (m *Machine) regWritten(d *DynInst, r isa.Reg) bool {
	for i := 0; i < int(d.nwr); i++ {
		if d.wrRegs[i] == r {
			return m.cells[d.wr[i]].at != 0
		}
	}
	return false
}

// setReg records one register result of d becoming available this cycle.
func (m *Machine) setReg(d *DynInst, r isa.Reg, v uint64) {
	// The arena is indexed after the call: claiming a cell may move it.
	i := m.regSlot(d, r)
	c := &m.cells[d.wr[i]]
	if c.at != 0 {
		// Keep the earliest availability (e.g. pop's rsp update computed at
		// fetch must not be delayed by the load half).
		c.v = v
		return
	}
	m.fill(c, v, m.cycle)
}

// srcRegs fills the machine's scratch register file with d's renamed
// register sources and returns it, for isa.Exec to read and write. The other
// registers keep what the last evaluation left: isa.Exec reads only the
// registers d's footprint names. A source whose producer has not produced yet
// reads as whatever its cell holds, so a stage keeps only the results its
// ready sources decide: execute-write-back runs a memory instruction before
// its data sources are ready, and takes only the address and the rsp update
// from it.
func (m *Machine) srcRegs(d *DynInst) *[isa.NumRegs]uint64 {
	r := &m.scratch
	for i := range d.srcs[:d.nsrcs] {
		r[d.srcs[i].reg] = m.cells[d.srcs[i].prod].v
	}
	return r
}

// exec runs isa.Exec on d over regs and produces every register d writes, in
// its footprint's order, this cycle. It returns the word d's memory operand
// holds afterwards, or false with m.err set when d faults.
func (m *Machine) exec(d *DynInst, regs *[isa.NumRegs]uint64, loaded uint64) (uint64, bool) {
	stored, err := isa.Exec(d.In, regs, loaded)
	if err != nil {
		m.err = fmt.Errorf("machine: ip=%d (%s): %v", d.IP, d.In, err)
		return 0, false
	}
	for _, r := range m.footprints[d.IP].Uniq.Writes() {
		m.setReg(d, r, regs[r])
	}
	return stored, true
}

// stackHalf returns the rsp that push or pop d leaves, given the scratch
// register file regs holding its incoming rsp: the register half the fetch or
// the execute-write-back stage produces before the memory half is known. The
// word a push stores and the register a pop loads, which may not be known
// yet, stay in the scratch file. A push or pop cannot fault.
func stackHalf(d *DynInst, regs *[isa.NumRegs]uint64) uint64 {
	isa.Exec(d.In, regs, 0)
	return regs[isa.RSP]
}
