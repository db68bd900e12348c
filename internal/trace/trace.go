// Package trace defines the dynamic instruction record produced by the
// functional emulator and consumed by the ILP analysis — the substrate of
// the paper's Section 3 trace study (Fig. 7).
//
// A Record captures exactly what the paper's dependence models need: the
// architectural registers read and written (with the Flags register made
// explicit), the data memory words read and written, and the control outcome.
// Records are independent of instruction encoding, so the analyser never
// needs to re-decode anything. The emulator writes each record in place, into
// the slots of a Buffer, as the instruction retires; Fig. 7 analyses each
// batch of them on a second goroutine and keeps none.
//
// A Trace stores records in memory, with summary statistics and a binary
// encoding. No command stores one: they remain for the tests and for
// benchmark/'s stored-trace probes.
package trace

import (
	"bytes"
	"encoding/binary"
	"slices"

	"repro/internal/isa"
)

// Record is one dynamic instruction instance. It is a fixed-size value with
// no pointers in it: an instruction of this ISA makes at most one load and one
// store and names a handful of registers, so the sets live inline, a trace is
// one flat allocation the collector never scans, and appending a record is a
// copy. A record carries no sequence number: its position in the trace is its
// place in the dynamic instruction stream.
type Record struct {
	IP        int64  // code address (instruction index)
	Load      uint64 // address of the 8-byte data load, when HasLoad
	Store     uint64 // address of the 8-byte data store, when HasStore
	CallLevel int32  // call nesting depth at this instruction
	Op        isa.Op // opcode, for classification and reporting
	Taken     bool   // for control instructions: branch taken
	HasLoad   bool
	HasStore  bool
	// Regs are the architectural registers read (incl. Flags, rsp) and
	// written, in the instruction's operand order: its footprint's Regs.
	Regs isa.RegSets
}

// RegReads returns the registers read. The slice aliases the record.
func (r *Record) RegReads() []isa.Reg { return r.Regs.Reads() }

// RegWrites returns the registers written. The slice aliases the record.
func (r *Record) RegWrites() []isa.Reg { return r.Regs.Writes() }

// IsControl reports whether the record is a control-flow instruction.
func (r *Record) IsControl() bool { return r.Op.IsControl() }

// Trace is an in-memory dynamic trace.
type Trace struct {
	Records []Record
}

// Buffer is a run of record slots a producer writes in place: Records[:N]
// are written, and Records[N] is the next record's slot while N is below
// len(Records). The emulator writes its trace into one (emu.CPU.Trace).
type Buffer struct {
	Records []Record
	N       int
}

// Grow makes room for the next record by growing Records, keeping every
// record written: as the emulator's trace hook it stores the whole trace in
// b, and Records[:N] is the trace once the run is over.
func (b *Buffer) Grow() {
	b.Records = slices.Grow(b.Records[:b.N], 1)
	b.Records = b.Records[:cap(b.Records)]
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

const traceMagic = "MCT1"

// Encode serialises the trace in the MCT1 binary format. Nothing reads it
// back: it is the subject of benchmark/'s trace.encode_ns_per_inst probe, and
// TestTraceEncodeDigest pins its bytes as a digest of the records.
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
