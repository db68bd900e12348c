// Package trace defines the dynamic instruction trace format produced by the
// functional emulator and consumed by the ILP analyses — the substrate of
// the paper's Section 3 trace study (Fig. 7).
//
// A Record captures exactly what the paper's dependence models need: the
// architectural registers read and written (with the Flags register made
// explicit), the data memory words read and written, and the control outcome.
// Records are independent of instruction encoding, so the analyser never
// needs to re-decode anything.
package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// Record is one dynamic instruction instance. It is a fixed-size value with
// no pointers in it: an instruction of this ISA makes at most one load and one
// store and names a handful of registers, so the sets live inline, a trace is
// one flat allocation the collector never scans, and appending a record is a
// copy.
type Record struct {
	Seq       int64  // position in the dynamic trace, from 0
	IP        int64  // code address (instruction index)
	Load      uint64 // address of the 8-byte data load, when HasLoad
	Store     uint64 // address of the 8-byte data store, when HasStore
	CallLevel int32  // call nesting depth at this instruction
	Op        isa.Op // opcode, for classification and reporting
	Taken     bool   // for control instructions: branch taken
	HasLoad   bool
	HasStore  bool

	nReads, nWrites uint8
	reads           [4]isa.Reg // two operands of base+index, or rax, rdx and one of those
	writes          [2]isa.Reg
}

// RegReads returns the architectural registers read (incl. Flags, rsp), in
// the instruction's operand order. The slice aliases the record.
func (r *Record) RegReads() []isa.Reg { return r.reads[:r.nReads] }

// RegWrites returns the architectural registers written. The slice aliases
// the record.
func (r *Record) RegWrites() []isa.Reg { return r.writes[:r.nWrites] }

// SetRegs fills the register sets from the instruction. An instruction whose
// sets outgrow the record panics: the record is sized for the ISA, and a
// silently shortened set would drop dependences from every ILP figure.
func (r *Record) SetRegs(in *isa.Instruction) {
	r.nReads = fits(in.RegReads(r.reads[:0]), len(r.reads))
	r.nWrites = fits(in.RegWrites(r.writes[:0]), len(r.writes))
}

func fits(set []isa.Reg, room int) uint8 {
	if len(set) > room {
		panic(fmt.Sprintf("trace: a set of %d registers does not fit a record's %d", len(set), room))
	}
	return uint8(len(set))
}

// IsControl reports whether the record is a control-flow instruction.
func (r *Record) IsControl() bool {
	switch r.Op {
	case isa.JMP, isa.Jcc, isa.CALL, isa.RET, isa.FORK, isa.ENDFORK, isa.HLT:
		return true
	}
	return false
}

// Trace is an in-memory dynamic trace.
type Trace struct {
	Records []Record
}

// Append adds a record, assigning its sequence number.
func (t *Trace) Append(r Record) {
	r.Seq = int64(len(t.Records))
	t.Records = append(t.Records, r)
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Records) }

// Stats summarises a trace.
type Stats struct {
	Instructions int
	Loads        int
	Stores       int
	Branches     int // conditional branches
	Taken        int
	Calls        int
	Returns      int
	Forks        int
	MaxCallLevel int32
}

// ComputeStats scans the trace once and returns summary statistics.
func (t *Trace) ComputeStats() Stats {
	var s Stats
	s.Instructions = len(t.Records)
	for i := range t.Records {
		r := &t.Records[i]
		if r.HasLoad {
			s.Loads++
		}
		if r.HasStore {
			s.Stores++
		}
		switch r.Op {
		case isa.Jcc:
			s.Branches++
			if r.Taken {
				s.Taken++
			}
		case isa.CALL:
			s.Calls++
		case isa.RET:
			s.Returns++
		case isa.FORK:
			s.Forks++
		}
		if r.CallLevel > s.MaxCallLevel {
			s.MaxCallLevel = r.CallLevel
		}
	}
	return s
}

// String formats the stats for reports.
func (s Stats) String() string {
	return fmt.Sprintf("instr=%d loads=%d stores=%d branches=%d (taken %d) calls=%d rets=%d forks=%d maxlevel=%d",
		s.Instructions, s.Loads, s.Stores, s.Branches, s.Taken, s.Calls, s.Returns, s.Forks, s.MaxCallLevel)
}

// Binary serialisation, for storing a trace and re-analysing it without
// re-running the emulator. No command produces trace files: the consumers are
// benchmark/'s trace.encode_ns_per_inst probe and the round-trip tests.

const traceMagic = "MCT1"

// Encode serialises the trace.
func (t *Trace) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(traceMagic)
	var tmp [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		b.Write(tmp[:])
	}
	regs := func(set []isa.Reg) {
		b.WriteByte(byte(len(set)))
		for _, reg := range set {
			b.WriteByte(byte(reg))
		}
	}
	// The format counts a record's loads and stores; the ISA makes at most
	// one of each.
	access := func(has bool, addr uint64) {
		if !has {
			b.WriteByte(0)
			return
		}
		b.WriteByte(1)
		u64(addr)
	}
	u64(uint64(len(t.Records)))
	for i := range t.Records {
		r := &t.Records[i]
		u64(uint64(r.IP))
		b.WriteByte(byte(r.Op))
		flags := byte(0)
		if r.Taken {
			flags |= 1
		}
		b.WriteByte(flags)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(r.CallLevel))
		b.Write(tmp[:4])
		regs(r.RegReads())
		regs(r.RegWrites())
		access(r.HasLoad, r.Load)
		access(r.HasStore, r.Store)
	}
	return b.Bytes()
}

// Decode deserialises a trace produced by Encode.
func Decode(buf []byte) (*Trace, error) {
	if len(buf) < 4 || string(buf[:4]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	off := 4
	need := func(n int) error {
		if off+n > len(buf) {
			return fmt.Errorf("trace: truncated at offset %d", off)
		}
		return nil
	}
	count := func(room int, what string) (int, error) {
		if err := need(1); err != nil {
			return 0, err
		}
		k := int(buf[off])
		if k > room {
			return 0, fmt.Errorf("trace: %d %s at offset %d, a record holds %d", k, what, off, room)
		}
		off++
		return k, nil
	}
	regs := func(dst []isa.Reg) (uint8, error) {
		k, err := count(len(dst), "registers")
		if err == nil {
			err = need(k)
		}
		if err != nil {
			return 0, err
		}
		for j := 0; j < k; j++ {
			dst[j] = isa.Reg(buf[off+j])
		}
		off += k
		return uint8(k), nil
	}
	access := func() (addr uint64, has bool, err error) {
		k, err := count(1, "accesses")
		if err == nil {
			err = need(8 * k)
		}
		if err != nil || k == 0 {
			return 0, false, err
		}
		addr = binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return addr, true, nil
	}
	if err := need(8); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(buf[off:])
	off += 8
	t := &Trace{Records: make([]Record, 0, n)}
	for i := uint64(0); i < n; i++ {
		var r Record
		r.Seq = int64(i)
		if err := need(8 + 1 + 1 + 4); err != nil {
			return nil, err
		}
		r.IP = int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		r.Op = isa.Op(buf[off])
		off++
		r.Taken = buf[off]&1 != 0
		off++
		r.CallLevel = int32(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		var err error
		if r.nReads, err = regs(r.reads[:]); err != nil {
			return nil, err
		}
		if r.nWrites, err = regs(r.writes[:]); err != nil {
			return nil, err
		}
		if r.Load, r.HasLoad, err = access(); err != nil {
			return nil, err
		}
		if r.Store, r.HasStore, err = access(); err != nil {
			return nil, err
		}
		t.Records = append(t.Records, r)
	}
	return t, nil
}
