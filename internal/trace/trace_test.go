package trace

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// rec is the one place a test builds a record by hand: header fields from
// hdr, register sets copied in with the same over-full check SetRegs applies.
func rec(hdr Record, reads, writes []isa.Reg) Record {
	hdr.nReads, hdr.nWrites = fits(reads, len(hdr.reads)), fits(writes, len(hdr.writes))
	copy(hdr.reads[:], reads)
	copy(hdr.writes[:], writes)
	return hdr
}

// synthetic returns a small hand-built trace exercising every record field.
func synthetic() *Trace {
	t := &Trace{}
	t.Append(rec(Record{IP: 0, Op: isa.MOV}, nil, []isa.Reg{isa.RAX}))
	t.Append(rec(Record{IP: 1, Op: isa.MOV, Store: 0x10000, HasStore: true}, []isa.Reg{isa.RAX}, nil))
	t.Append(rec(Record{IP: 2, Op: isa.ADD, Load: 0x10008, HasLoad: true},
		[]isa.Reg{isa.RAX, isa.RBX}, []isa.Reg{isa.RAX, isa.Flags}))
	t.Append(rec(Record{IP: 3, Op: isa.Jcc, Taken: true}, []isa.Reg{isa.Flags}, nil))
	t.Append(rec(Record{IP: 4, Op: isa.Jcc}, []isa.Reg{isa.Flags}, nil))
	t.Append(Record{IP: 5, Op: isa.CALL, CallLevel: 0, Store: 0x7ffeff00, HasStore: true})
	t.Append(Record{IP: 9, Op: isa.RET, CallLevel: 1, Load: 0x7ffeff00, HasLoad: true})
	t.Append(Record{IP: 6, Op: isa.FORK, CallLevel: 0})
	t.Append(Record{IP: 7, Op: isa.ENDFORK, CallLevel: 1})
	t.Append(Record{IP: 8, Op: isa.HLT})
	return t
}

func TestAppendAssignsSeq(t *testing.T) {
	tr := synthetic()
	for i, r := range tr.Records {
		if r.Seq != int64(i) {
			t.Errorf("record %d has Seq %d", i, r.Seq)
		}
	}
	if tr.Len() != 10 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestComputeStats(t *testing.T) {
	s := synthetic().ComputeStats()
	if s.Instructions != 10 {
		t.Errorf("Instructions = %d", s.Instructions)
	}
	if s.Loads != 2 {
		t.Errorf("Loads = %d", s.Loads)
	}
	if s.Stores != 2 {
		t.Errorf("Stores = %d", s.Stores)
	}
	if s.Branches != 2 {
		t.Errorf("Branches = %d", s.Branches)
	}
	if s.Taken != 1 {
		t.Errorf("Taken = %d", s.Taken)
	}
	if s.Calls != 1 || s.Returns != 1 || s.Forks != 1 {
		t.Errorf("Calls/Returns/Forks = %d/%d/%d", s.Calls, s.Returns, s.Forks)
	}
	if s.MaxCallLevel != 1 {
		t.Errorf("MaxCallLevel = %d", s.MaxCallLevel)
	}
}

func TestIsControl(t *testing.T) {
	control := []isa.Op{isa.JMP, isa.Jcc, isa.CALL, isa.RET, isa.FORK, isa.ENDFORK, isa.HLT}
	for _, op := range control {
		r := Record{Op: op}
		if !r.IsControl() {
			t.Errorf("%v not classified as control", op)
		}
	}
	for _, op := range []isa.Op{isa.MOV, isa.ADD, isa.PUSH, isa.NOP} {
		r := Record{Op: op}
		if r.IsControl() {
			t.Errorf("%v classified as control", op)
		}
	}
}

// TestRecordIsFlat pins the two properties the trace's cost rests on: a
// record holds nothing the collector has to follow (so a trace is one
// unscanned allocation and growing it is a plain copy), and it stays at 48
// bytes — a traced run allocates little else, so a word more per record shows
// in ilp_fig7's alloc_b_per_work.
func TestRecordIsFlat(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s is a %s: a record must be pointer-free", path, ty.Kind())
		}
	}
	walk("Record", reflect.TypeOf(Record{}))
	if got := unsafe.Sizeof(Record{}); got > 48 {
		t.Errorf("Record is %d bytes, budget 48", got)
	}
}

// TestOverfullSetIsAnError: a register set that outgrows the record is never
// shortened — building one panics.
func TestOverfullSetIsAnError(t *testing.T) {
	five := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a five-register read set was accepted")
			}
		}()
		rec(Record{}, five, nil)
	}()
}
