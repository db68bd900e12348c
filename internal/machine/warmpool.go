package machine

import (
	"sync"
	"unsafe"

	"repro/internal/isa"
)

// Pool is a bounded LIFO of idle, warmed machines. Nothing a machine owns
// depends on the program it last ran (see Machine.bind), so any parked
// machine serves any request: Get pops one and binds it to the requested
// program and configuration — core count, topology, scheduler — and only an
// empty pool constructs. A grid of different (kernel, chip) points runs on
// about as many machines as it has workers, bit-identically to fresh ones. A
// run of a footprint the machine has seen allocates only the fixed handful
// New's boot does (internal/bench's allocation tests); a larger one regrows
// only the buffers it outgrows. A parked machine keeps the footprint of the
// largest run it has seen only up to parkedArenaBytes: Put gives the rest of
// its arenas back to the GC, so one huge point does not pin its memory in the
// pool for good.
//
// A nil *Pool is the no-pooling pool, like a nil *sweep.Cache: Get constructs
// a fresh machine every time, Put drops, Stats stays zero — so a caller with
// an optional pool has one acquisition path.
type Pool struct {
	// MaxIdle bounds the machines parked in the pool; returning a machine to
	// a full pool drops it for the GC instead. 0 means DefaultMaxIdle.
	MaxIdle int

	mu    sync.Mutex
	free  []*Machine
	stats PoolStats
}

// DefaultMaxIdle is the default bound on parked machines. Machines are heavy
// (their arenas are sized to the workload), so the pool keeps only about as
// many as a host's worth of sweep workers can have in flight.
const DefaultMaxIdle = 32

// parkedArenaBytes bounds what a parked machine keeps of its two arenas, half
// each. It is far above what any point of the bench grids reaches (quickSort
// n=512 on 64 cores, the benchmark's machine_bign, peaks at some 17 000
// DynInsts, 3.9 MB, and 23 000 cells, 0.8 MB), so a sweep's machines never
// regrow; it is what a server that once simulated a paper-scale point — or a
// single section that keeps a million words in its MAAT — stops holding on
// to.
const parkedArenaBytes = 64 << 20

// PoolStats counts what the pool did.
type PoolStats struct {
	// Hits is how many Gets were served by a warmed machine.
	Hits int64
	// Misses is how many Gets constructed a fresh machine.
	Misses int64
	// Dropped is how many Puts found the pool full and released the
	// machine to the GC.
	Dropped int64
}

// NewPool returns an empty pool with the default idle bound.
func NewPool() *Pool { return &Pool{} }

// Stats returns the counters accumulated so far.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Get returns a machine for prog under cfg: a parked machine bound to them,
// or a freshly constructed one. Either way the machine is in the post-New
// state — the caller injects inputs into DMH() and calls Run, exactly as
// after New — and a request New would refuse fails with New's error, the
// parked machine staying parked. After a successful run, return the machine
// with Put; after a failed one, drop it (a faulted machine's state is not
// worth reusing). The string was the pool key; it is ignored, and stays only
// until a PR may edit benchmark/, which still passes one.
func (p *Pool) Get(_ string, prog *isa.Program, cfg Config) (*Machine, error) {
	if p == nil {
		return New(prog, cfg)
	}
	p.mu.Lock()
	k := len(p.free) - 1
	if k < 0 {
		p.stats.Misses++
		p.mu.Unlock()
		return New(prog, cfg)
	}
	m := p.free[k]
	p.free[k] = nil
	p.free = p.free[:k]
	p.stats.Hits++
	p.mu.Unlock()
	if err := m.bind(prog, cfg); err != nil {
		p.Put("", m)
		return nil, err
	}
	return m, nil
}

// Put parks a machine for a later Get. Only machines that completed a
// successful Run belong here. The string is ignored, as in Get.
func (p *Pool) Put(_ string, m *Machine) {
	if p == nil {
		return
	}
	max := p.MaxIdle
	if max <= 0 {
		max = DefaultMaxIdle
	}
	m.trim()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= max {
		p.stats.Dropped++
		return
	}
	p.free = append(p.free, m)
}

// trim cuts the machine's arenas down to parkedArenaBytes, half each. The
// run that grew them past it is still all over the machine — alias tables,
// queues and requests point into the chunks to drop — so it is released
// first, as the next bind would do anyway. A cell arena over its half is
// dropped whole; the next run regrows it.
func (m *Machine) trim() {
	dyns := parkedArenaBytes / 2 / (dynChunk * int(unsafe.Sizeof(DynInst{})))
	cells := parkedArenaBytes / 2 / cellBytes
	if len(m.dyns.chunks) <= dyns && cap(m.cells) <= cells {
		return
	}
	m.release()
	m.dyns.trim(dyns)
	if cap(m.cells) > cells {
		m.cells, m.names = nil, nil
		m.resetCells()
	}
}

// cellBytes is what the cell arena holds per cell: the cell and its count.
const cellBytes = int(unsafe.Sizeof(cell{}) + unsafe.Sizeof(uint32(0)))
