package sweep

import (
	"sync"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// frontEnd is the half of a point that no chip coordinate touches: the
// kernel compiled at one dataset size, and the cache key's hash state once
// that program and the seed's inputs have been absorbed (keyPrefix). The
// scaling study holds exactly this fixed while it varies cores, topology,
// shortcut and cap, so every point of a (kernel, n, seed) shares one.
//
// The program is shared read-only by every machine the engine binds to it:
// the machine, the emulator and backend.Inject only read Text, Data and
// DataSyms.
type frontEnd struct {
	once   sync.Once
	prog   *isa.Program
	prefix []byte
	err    error
	size   int
}

// frontKey identifies a front end by the kernel's identity, not its content:
// within one process the registered kernels and the compiler cannot change,
// so (pointer, n, seed) determines the program and the inputs. The key
// stored on disk stays content-derived because other processes, built from
// other sources, read the same cache directory.
type frontKey struct {
	k    *pbbs.Kernel
	n    int
	seed uint64
}

const (
	// frontBudget bounds the bytes the memo retains: room for about a
	// thousand front ends (the eleven kernels at n=64 come to 330 KB,
	// quickSort at n=512 to 28 KB).
	frontBudget = 32 << 20
	// frontOverhead is charged per entry for the entry itself, its hash
	// state and its map slot, so that entries without a program (failed
	// builds) are bounded too.
	frontOverhead = 512
)

// frontMemo remembers front ends up to a byte budget. The zero value is
// ready to use.
type frontMemo struct {
	mu     sync.Mutex
	m      map[frontKey]*frontEnd
	bytes  int // sizes of the built entries in m
	budget int // 0 means frontBudget; tests shrink it
}

// get returns the front end of (k, n, seed), building it if this is the
// first caller to ask (built reports that); concurrent callers wait for the
// one build and share its outcome. n must already be clamped.
func (fm *frontMemo) get(k *pbbs.Kernel, n int, seed uint64) (fe *frontEnd, built bool) {
	key := frontKey{k, n, seed}
	fm.mu.Lock()
	fe = fm.m[key]
	if fe == nil {
		if fm.m == nil {
			fm.m = make(map[frontKey]*frontEnd)
		}
		fe = new(frontEnd)
		fm.m[key] = fe
	}
	fm.mu.Unlock()
	fe.once.Do(func() {
		built = true
		fe.build(k, n, seed)
		fm.retain(key, fe)
	})
	return fe, built
}

func (fe *frontEnd) build(k *pbbs.Kernel, n int, seed uint64) {
	fe.size = frontOverhead
	fe.prog, fe.err = k.Build(n, minic.ModeFork)
	if fe.err != nil {
		return
	}
	fe.prefix = keyPrefix(fe.prog, k.Gen(n, seed))
	fe.size += len(fe.prog.Text)*int(unsafe.Sizeof(isa.Instruction{})) + len(fe.prog.Data)
}

// retain charges a built entry against the budget. Going over it forgets
// every entry: a front end is a pure function of its key, so one that is
// asked for again is rebuilt to the same program and the same prefix, and
// callers still holding a forgotten entry keep using it.
func (fm *frontMemo) retain(key frontKey, fe *frontEnd) {
	budget := fm.budget
	if budget == 0 {
		budget = frontBudget
	}
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if fm.m[key] != fe {
		return // forgotten while it was being built
	}
	if fm.bytes+fe.size > budget {
		clear(fm.m)
		fm.bytes = 0
		if fe.size > budget {
			return
		}
		fm.m[key] = fe
	}
	fm.bytes += fe.size
}
