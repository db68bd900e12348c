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

// MemRef is one data-memory access of 8 bytes at Addr.
type MemRef struct {
	Addr uint64
}

// Record is one dynamic instruction instance.
type Record struct {
	Seq       int64     // position in the dynamic trace, from 0
	IP        int64     // code address (instruction index)
	Op        isa.Op    // opcode, for classification and reporting
	RegReads  []isa.Reg // architectural registers read (incl. Flags, rsp)
	RegWrites []isa.Reg // architectural registers written
	MemReads  []MemRef  // 8-byte data loads
	MemWrites []MemRef  // 8-byte data stores
	Taken     bool      // for control instructions: branch taken
	CallLevel int32     // call nesting depth at this instruction
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
		s.Loads += len(r.MemReads)
		s.Stores += len(r.MemWrites)
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
		b.WriteByte(byte(len(r.RegReads)))
		for _, reg := range r.RegReads {
			b.WriteByte(byte(reg))
		}
		b.WriteByte(byte(len(r.RegWrites)))
		for _, reg := range r.RegWrites {
			b.WriteByte(byte(reg))
		}
		b.WriteByte(byte(len(r.MemReads)))
		for _, m := range r.MemReads {
			u64(m.Addr)
		}
		b.WriteByte(byte(len(r.MemWrites)))
		for _, m := range r.MemWrites {
			u64(m.Addr)
		}
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
		readRegs := func() ([]isa.Reg, error) {
			if err := need(1); err != nil {
				return nil, err
			}
			k := int(buf[off])
			off++
			if err := need(k); err != nil {
				return nil, err
			}
			if k == 0 {
				return nil, nil
			}
			rs := make([]isa.Reg, k)
			for j := 0; j < k; j++ {
				rs[j] = isa.Reg(buf[off+j])
			}
			off += k
			return rs, nil
		}
		var err error
		if r.RegReads, err = readRegs(); err != nil {
			return nil, err
		}
		if r.RegWrites, err = readRegs(); err != nil {
			return nil, err
		}
		readMems := func() ([]MemRef, error) {
			if err := need(1); err != nil {
				return nil, err
			}
			k := int(buf[off])
			off++
			if err := need(8 * k); err != nil {
				return nil, err
			}
			if k == 0 {
				return nil, nil
			}
			ms := make([]MemRef, k)
			for j := 0; j < k; j++ {
				ms[j].Addr = binary.LittleEndian.Uint64(buf[off:])
				off += 8
			}
			return ms, nil
		}
		if r.MemReads, err = readMems(); err != nil {
			return nil, err
		}
		if r.MemWrites, err = readMems(); err != nil {
			return nil, err
		}
		t.Records = append(t.Records, r)
	}
	return t, nil
}
