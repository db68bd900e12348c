package sweep

import (
	"sync"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// frontEnd is the half of a point that no chip coordinate touches: the
// kernel compiled at one dataset size, the seed's inputs, and the cache key's
// hash state once both have been absorbed (keyPrefix). The scaling study
// holds exactly this fixed while it varies cores, topology, shortcut and cap,
// so every point of a Front shares one, and it keeps the flights of those
// points.
//
// The program and the inputs are shared read-only by every machine the
// engine binds to them: the machine, the emulator and backend.Inject only
// read Text, Data and DataSyms, and Inject and the reference checksum only
// read the inputs. The reference checksum is the same for every chip, so it
// is derived once, by the first point that simulates (reference).
type frontEnd struct {
	once   sync.Once
	front  Front
	prog   *isa.Program
	in     pbbs.Inputs
	prefix []byte
	err    error

	refOnce sync.Once
	ref     uint64
	refErr  error

	// Guarded by frontMemo.mu.
	size     int // bytes charged: the build, and outcomeSize per remembered outcome
	flights  map[chip]*flight
	inFlight int // flights whose leader has not finished
}

// chip is the half of a point a front end leaves open.
type chip struct {
	cores    int
	topology string
	shortcut bool
	cap      int
}

func (p Point) chip() chip { return chip{p.Cores, p.Topology, p.Shortcut, p.MaxSections} }

// flight is one measurement of a chip of a front end. The leader derives the
// content key, fills in the outcome and closes done; followers block on done
// and copy it. A finished flight its front end keeps is the engine's memory
// of that outcome: a later caller pays a lookup and derives no key.
type flight struct {
	done     chan struct{}
	owner    *frontEnd // whose flights hold it
	key      string
	metrics  Metrics
	errMsg   string
	finished bool // remembered after its leader finished; guarded by frontMemo.mu
}

const (
	// memoBudget bounds the bytes the memo retains, front ends and
	// remembered outcomes alike: about a thousand front ends (the eleven
	// kernels at n=64 come to 353 KB, quickSort at n=512 to 32 KB) next to
	// some hundred thousand outcomes.
	memoBudget = 64 << 20
	// frontOverhead is charged per front end for the entry itself, its hash
	// state, its input map and its map slot, so that failed builds are
	// bounded too.
	frontOverhead = 512
	// outcomeSize is charged per remembered outcome: its flight, channel,
	// key and map slot.
	outcomeSize = 384
)

// frontMemo is the engine's memory: front ends by Front, each with the
// flights of its chips, within one byte budget. The zero value is ready to
// use. Concurrent measurements of a point join one flight, and a front end
// with a flight in flight is never forgotten, so every caller of that point
// finds it: with the cache, that makes a point's simulation exactly-once.
type frontMemo struct {
	mu     sync.Mutex
	m      map[Front]*frontEnd
	bytes  int // sizes of the entries in m
	budget int // 0 means memoBudget; tests shrink it
}

// get returns the front end of (k, n, seed), building it if this is the
// first caller to ask (built reports that); concurrent callers wait for the
// one build and share its outcome. n must already be clamped.
func (fm *frontMemo) get(k *pbbs.Kernel, n int, seed uint64) (fe *frontEnd, built bool) {
	key := Front{k.ID, n, seed}
	fm.mu.Lock()
	fe = fm.m[key]
	if fe == nil {
		if fm.m == nil {
			fm.m = make(map[Front]*frontEnd)
		}
		fe = &frontEnd{front: key}
		fm.m[key] = fe
	}
	fm.mu.Unlock()
	fe.once.Do(func() {
		built = true
		size := fe.build(k, n, seed)
		fm.mu.Lock()
		defer fm.mu.Unlock()
		fe.size += size
		if fm.m[key] == fe { // else forgotten while it was being built
			fm.bytes += size
			fm.fitLocked(fe)
		}
	})
	return fe, built
}

// build compiles the front end, generates its inputs and hashes both, and
// returns the bytes it retains.
func (fe *frontEnd) build(k *pbbs.Kernel, n int, seed uint64) int {
	fe.prog, fe.err = k.Build(n, minic.ModeFork)
	if fe.err != nil {
		return frontOverhead
	}
	fe.in = k.Gen(n, seed)
	fe.prefix = keyPrefix(fe.prog, fe.in)
	size := frontOverhead + len(fe.prog.Text)*int(unsafe.Sizeof(isa.Instruction{})) + len(fe.prog.Data)
	for _, words := range fe.in {
		size += 8 * len(words)
	}
	return size
}

// reference returns the checksum every simulated chip of the front end is
// checked against, deriving it on the first call; concurrent callers wait
// for the one derivation.
func (fe *frontEnd) reference(k *pbbs.Kernel) (uint64, error) {
	fe.refOnce.Do(func() { fe.ref, fe.refErr = k.Ref(fe.front.N, fe.in) })
	return fe.ref, fe.refErr
}

// join returns the flight of chip c in the front end the memo holds for fe's
// Front — fe itself, taken back if it was forgotten since get, or one built
// since — whether the caller leads it, and whether it had already finished
// (a remembered outcome). A leader must eventually call finish exactly once.
func (fm *frontMemo) join(fe *frontEnd, c chip) (f *flight, leader, remembered bool) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	owner := fm.m[fe.front]
	if owner == nil {
		owner = fe
		fm.m[fe.front] = fe
		fm.bytes += fe.size
		defer fm.fitLocked(fe)
	}
	if f = owner.flights[c]; f != nil {
		return f, false, f.finished
	}
	if owner.flights == nil {
		owner.flights = make(map[chip]*flight)
	}
	f = &flight{done: make(chan struct{}), owner: owner}
	owner.flights[c] = f
	owner.inFlight++
	return f, true, false
}

// finish records the leader's outcome and wakes the followers. A successful
// outcome is remembered when remember is set; anything else leaves the front
// end, so the point's next caller leads again.
func (fm *frontMemo) finish(f *flight, c chip, m Metrics, errMsg string, remember bool) {
	f.metrics, f.errMsg = m, errMsg
	fe := f.owner // held: it had a flight in flight
	fm.mu.Lock()
	fe.inFlight--
	if remember && errMsg == "" {
		f.finished = true
		fe.size += outcomeSize
		fm.bytes += outcomeSize
	} else {
		delete(fe.flights, c)
	}
	fm.fitLocked(fe)
	fm.mu.Unlock()
	close(f.done)
}

// fitLocked keeps the memo within its budget: going over it forgets every
// front end with no flight in flight, fe last and only if the rest still do
// not fit. A forgotten front end asked for again is rebuilt to the same
// program and prefix, and a forgotten point's next caller leads and reads
// the cache; callers still holding a forgotten entry keep using it.
func (fm *frontMemo) fitLocked(fe *frontEnd) {
	budget := fm.budget
	if budget == 0 {
		budget = memoBudget
	}
	if fm.bytes <= budget {
		return
	}
	for key, old := range fm.m {
		if old != fe && old.inFlight == 0 {
			delete(fm.m, key)
			fm.bytes -= old.size
		}
	}
	if fm.bytes > budget && fe.inFlight == 0 && fm.m[fe.front] == fe {
		delete(fm.m, fe.front)
		fm.bytes -= fe.size
	}
}
