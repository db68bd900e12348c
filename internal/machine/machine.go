// Package machine implements a cycle-level simulator of the paper's core
// design and many-core execution model (Section 4):
//
//   - per-core six-stage pipeline: fetch-decode-&-partly-execute,
//     register-rename, execute-write-back, address-rename, memory-access,
//     retire — each stage handles one instruction per cycle;
//   - fork/endfork section management with the totally ordered section list
//     (a fork inserts the created continuation section immediately after the
//     creating section, which itself continues into the callee);
//   - distributed register renaming: a source that cannot be renamed locally
//     triggers a request that travels backwards along the section order until
//     a producer (or a cached copy) is found, and the value travels back;
//   - memory renaming through a per-section Memory Address Alias Table
//     (MAAT), with the call-level shortcut for positive-rsp-offset addresses;
//   - parallel retirement: each section retires in order independently; the
//     oldest section dumps its renamings to the data memory hierarchy (DMH).
//
// The simulator executes fork programs (no call/ret) and is validated
// against the sequential emulator: same final rax and same final memory.
//
// The simulated hot path is allocation-free in steady state: dynamic
// instructions and renaming cells come from per-machine arenas through free
// lists, sections and requests from free lists, the register alias table is a
// fixed array and the MAAT an open-addressed table with recycled backing (see
// pool.go), and the per-core queues reuse their buffers. Machine.Reset
// rewinds everything for another run on the same program without
// re-allocating.
//
// What the machine holds is what is in flight. A dynamic instruction is
// recycled the cycle it retires (retireApply): its per-stage row goes to the
// caller's sink if there is one (SetSink), its counts are folded into running
// aggregates, and the object returns to a free list — so the instruction arena
// follows the run's un-retired window, not its length. A renaming cell lives
// as long as something names it, like a physical register: an undumped
// section's alias-table slot, a request that is to fill it, or — once a
// later writer has overwritten the slot — that writer until it retires, by
// which time every reader of the old value has retired before it. Those
// names are counted (Machine.names), and the cell is reused once the count
// is back to zero, so the cell arena follows the window too. A section lives
// from its fork to its dump: dumpOldest folds its record into the run's
// result, takes it out of the section order and hands its shell to the next
// fork, so the shells follow the sections undumped at once, and the order —
// which a renaming request walks back and the dense scheduler scans — holds
// only those.
//
// Waiting work is parked, not polled. The production (idle-skip) scheduler
// keeps in a core's issue and load-store queues only instructions that are
// ready or wait for a known cycle; one that waits for a value nobody has
// produced yet hangs on that value's cell until Machine.fill writes it. A
// renaming request likewise leaves Machine.reqs for the section whose
// renamings it waits for (the paper's "enqueued in the ARQ", §4.2) or for the
// cell whose value it is to export. Host cost per simulated cycle therefore
// follows what happens in the cycle, not what is in flight. Config.Dense is
// the reference: it parks nothing and polls every resident and every request
// every cycle through the same wake computations and the same apply code, so
// it witnesses independently every wake the production path has to deliver.
//
// Nor does the production scheduler walk the chip — the paper's runs want a
// core per section, thousands of cores that each fetch one short section and
// wait. What it needs to find is found through the event that changes it: a
// core is visited while it is armed, and the two ways work reaches a core from
// outside arm it (Machine.armed); a section is a candidate for retirement or
// address renaming while it is on its core's ready list, and the completion
// of its head lists it (Core.retireReady, Core.arReady); a forked section's
// host is read from cores indexed by load, moved where the load changes
// (Machine.loads). Config.Dense visits every core, scans the section order per
// core and reads every core's load instead — see runIdleSkip for why the two
// agree.
package machine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/noc"
)

// Config parameterises the machine.
type Config struct {
	// Cores is the number of cores. Must be >= 1.
	Cores int
	// Net is the on-chip network used to charge message latencies between
	// cores. Defaults to an ideal crossbar with hop latency 1, which
	// reproduces the paper's "3 cycles to reach the producer and return"
	// accounting of Fig. 10. A network's Cores must equal Cores.
	Net noc.Network
	// CreateLatency is the section-creation message latency in cycles.
	// Defaults to DefaultCreateLatency.
	CreateLatency int64
	// Shortcut enables the call-level shortcut for renaming requests whose
	// address is rsp-based with a non-negative offset (§4.2). Default on
	// via DefaultConfig; disable for the ablation bench.
	Shortcut bool
	// MaxSectionsPerCore switches the host chooser from spreading to
	// packing: when > 0, a new section goes to the most loaded core that
	// still hosts fewer than this many live sections, filling cores up to
	// the cap before touching idle ones (locality over fetch spread). The
	// cap is soft: if every core is at the cap the least loaded core is
	// used anyway. 0 keeps the default least-loaded spreading.
	MaxSectionsPerCore int
	// Dense selects the reference dense scheduler, which visits every core,
	// stage, queued instruction and request on every cycle, and reads every
	// core's load to place a section. The default (false) is the idle-skip
	// scheduler: each cycle visits only the armed cores, work blocked on an
	// unproduced value or an unfinished renaming is parked on what unblocks
	// it, and when nothing in the chip can act before a known future cycle
	// the clock jumps there directly. Both produce bit-identical results;
	// dense is only the tests' oracle, and no command selects it.
	Dense bool
	// MaxCycles aborts runs longer than this. Defaults to 100M.
	MaxCycles int64
}

// DefaultCreateLatency is the section-creation latency of the paper's chip
// (footnote 7: "the creation time of the forked section (2 cycles)").
const DefaultCreateLatency = 2

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:         cores,
		CreateLatency: DefaultCreateLatency,
		Shortcut:      true,
	}
}

// regFile is a register file with a presence bit per register (the paper's
// full/empty bits): v[r] is register r's value, meaningful only while bit r
// of full is set. The bits are packed in one word, so a register file is 144
// bytes rather than 17 16-byte value/bit pairs, and copying or emptying a
// whole one is a plain assignment.
type regFile struct {
	v    [isa.NumRegs]uint64
	full uint32
}

func (f *regFile) has(r isa.Reg) bool { return f.full&(1<<r) != 0 }

func (f *regFile) set(r isa.Reg, v uint64) {
	f.v[r] = v
	f.full |= 1 << r
}

func (f *regFile) empty(r isa.Reg) { f.full &^= 1 << r }

// cell is a write-once value with its ready time — the paper's full/empty
// bit, timed. It is what a renamed source waits on: an instruction's register
// result (DynInst.wr), a store's memory value (DynInst.mem), a cache cell
// filled by a remote renaming response, or an immediately available
// creation-copy value. All of them live in the machine's cell arena
// (Machine.cells), none inside a DynInst: alias tables, consumers' sources,
// fork copies and requests may keep referring to a result after the
// instruction that produced it has retired and been recycled. They hold its
// cellID, and the cell is freed when the last name of it is let go of (see
// Machine.names). at is the hottest read in the simulator, and earlier
// representations (an interface with dynamic dispatch, then a 40-byte tagged
// union with a kind switch) both showed up at the top of the CPU profile; an
// indexed load does not.
//
// A cell also carries the work that is waiting for it. Under the idle-skip
// scheduler an instruction that cannot pass its stage because this value is
// not produced yet leaves its core's issue or load-store queue and is linked
// on insts; a renaming request whose export waits for this value leaves
// Machine.reqs and is linked on reqs. Machine.fill — the only writer of at,
// creation copies aside, which are born full — puts both back. The lists are intrusive (DynInst.next, request.next), so
// parking allocates nothing, and they are always empty under Config.Dense,
// which polls instead.
type cell struct {
	v     uint64
	at    int64 // cycle the value became available; 0 until produced (real cycles start at 1)
	insts *DynInst
	reqs  *request
}

// cellID is a cell's handle: its index in Machine.cells. The zero handle
// names no cell.
type cellID uint32

// readyAt returns the cycle the value became available, or -1 if not yet
// available. A consumer stage running at cycle c may use the value when
// readyAt() >= 0 && readyAt() < c.
func (c *cell) readyAt() int64 {
	if c.at != 0 {
		return c.at
	}
	return -1
}

// fill produces c's value, usable from the cycle after at, and wakes what is
// parked on the cell. Every caller passes at >= m.cycle, which is what makes
// parking exact: nothing woken here could have acted in the current cycle,
// so it does not matter that the woken work's core may already have run its
// stages, or that the poll it replaces would have happened earlier or later
// in the cycle. Most cells are filled with nobody waiting; the test keeps
// that case small enough to inline.
func (m *Machine) fill(c *cell, v uint64, at int64) {
	c.v, c.at = v, at
	if c.insts != nil || c.reqs != nil {
		m.wake(c)
	}
}

// wake returns the work parked on c to where the schedulers look for it:
// instructions to their core's issue queue (before execute-write-back) or
// load-store queue (after it), requests to Machine.reqs.
func (m *Machine) wake(c *cell) {
	for d := c.insts; d != nil; {
		next := d.next
		d.next = nil
		core := m.cores[d.Sec.Core]
		if d.tEW == 0 {
			core.iq = append(core.iq, d)
		} else {
			core.lsq = append(core.lsq, d)
		}
		m.armed.set(core.id)
		d = next
	}
	c.insts = nil
	m.wakeRequests(&c.reqs)
}

// maxSrcs and maxWr bound the registers one instruction reads and writes:
// the room of its footprint's sets.
const (
	maxSrcs = isa.MaxReads
	maxWr   = isa.MaxWrites
)

// Register sets are uint32 masks, bit r for register r (regFile.full,
// DynInst.pendingCopy): this fails to compile if the register file outgrows
// one.
const _ uint32 = 1<<isa.NumRegs - 1

// DynInst is one dynamic instruction in flight: from its fetch to the cycle it
// retires, when retireApply recycles it. DynInsts come from a chunked arena
// (pool.go) through a free list of retired ones, so the arena grows to the
// run's largest un-retired window. Nothing may hold a *DynInst past its
// retirement; what has to outlive it — the values it produced — lives in
// cells, which it refers to by handle while it is in flight. The size is pinned
// by TestDynInstSize: the fields are grouped by width for that reason, and
// what the static instruction says is read from the program by IP
// (Machine.inst, Machine.footprints) rather than kept here.
type DynInst struct {
	Sec *Section
	// For fork instructions: the created section.
	createdSec *Section
	// next links the instruction on the waiter list of the cell it is parked
	// on (cell.insts). One link serves both stages: an instruction waits in
	// the issue queue before execute-write-back and in the load-store queue
	// after address rename, never in both.
	next *DynInst
	// secNext links the section's un-retired instructions in fetch order
	// (Section.head) and, once the instruction has retired, the machine's
	// free list (Machine.dynFree).
	secNext *DynInst

	addr uint64 // effective address (mem ops), set at EW

	IP    int32 // index into the program's text; bind caps its length
	Idx   int32 // ordinal within the section
	Level int32 // call level at this instruction

	// Stage cycles (0 = not yet / not applicable): fetch-decode,
	// register-rename, execute-write-back, address-rename and memory-access.
	// With the retire cycle, known when the row is emitted, these are the six
	// columns of the paper's Fig. 10. Every cycle an instruction stores fits
	// in 32 bits because bind caps Config.MaxCycles at math.MaxInt32 (see
	// cyc32).
	tFD, tRR, tEW, tAR, tMA int32
	// ewWakeAt/maWakeAt cache the earliest cycle the instruction can pass
	// the execute-write-back / memory-access stage (0 = not yet known).
	// Cell ready times are write-once, so a known wake never changes and the
	// per-cycle readiness poll collapses to one comparison.
	ewWakeAt, maWakeAt int32
	// ewSrcMax/ewSrcIdx (and the ma pair) make the wake computation
	// incremental while some source is still unready: sources are confirmed
	// ready left to right, the running maximum of their ready times is kept,
	// and a confirmed source is never polled again — only the first
	// still-unready source is polled per visit, and it is the cell the
	// instruction parks on. Exact for the same write-once reason the
	// whole-wake cache is. A max of 0 means the accumulation has not started
	// (real ready times are >= 1); for the ma pair index 0 is the loaded-value
	// producer, index i+1 is srcs[i].
	ewSrcMax, maSrcMax int32

	// srcs are the producer cells of the register sources, srcRegs their
	// registers, in the footprint's order; bit i of addrSrcs says srcs[i]
	// forms the address of a memory instruction.
	srcs [maxSrcs]cellID
	// Register-result cells: wrRegs names the (at most maxWr) registers the
	// instruction writes, wr their value cells. Cells are claimed
	// find-or-create by regSlot — at fetch for in-stage computed results, at
	// rename for the alias-table producers — and are exactly what the alias
	// table points consumers at.
	wr [maxWr]cellID
	// prev[i] is the cell the section's alias table named for wrRegs[i]
	// before this instruction's rename overwrote the slot, and prevMem the
	// cell a store's MAAT entry named before address rename overwrote it.
	// The overwritten slot's name passes to the instruction, which lets go of
	// it when it retires — as R10000-style renaming frees the previous
	// physical register when the next writer commits. Every instruction that
	// read the old cell through the slot was renamed before this one, in the
	// same section, so it has retired by then; that is why sources (and
	// memSrc) name nothing.
	prev [maxWr]cellID
	// mem is a store's memory value as later loads of the word see it: claimed
	// at address rename, when the section's MAAT starts naming it, and filled
	// at memory access. Zero for instructions that write no memory.
	mem     cellID
	memSrc  cellID // the loaded word's producer, set at AR
	prevMem cellID // see prev
	// pendingCopy is, for a fork, the mask of the non-volatile registers that
	// were not computed at the fork point and must be linked to the creator's
	// current producers at the rename stage.
	pendingCopy uint32

	class              isa.Class
	computedAtFetch    bool
	nsrcs, nwr         uint8
	ewSrcIdx, maSrcIdx uint8 // see ewSrcMax
	addrSrcs           uint8 // see srcs
	srcRegs            [maxSrcs]isa.Reg
	wrRegs             [maxWr]isa.Reg
}

// cyc32 stores cycle t in a DynInst's 32-bit fields. A stage cycle is at
// most Config.MaxCycles, which bind caps at math.MaxInt32. A wake can lie
// past the cap; it saturates there, so the instruction may pass its stage in
// the cap's cycle rather than later. It cannot also retire in that cycle, so
// the run still fails on the cap and nothing it reports moves.
func cyc32(t int64) int32 { return int32(min(t, math.MaxInt32)) }

// inst is d's static instruction.
func (m *Machine) inst(d *DynInst) *isa.Instruction { return &m.prog.Text[d.IP] }

func (d *DynInst) isMem() bool { return d.class == isa.ClassLoad || d.class == isa.ClassStore }

// done reports whether the instruction has produced everything it will.
func (d *DynInst) done() bool {
	if d.isMem() {
		return d.tMA != 0
	}
	return d.tEW != 0
}

// Section is one instruction flow, created by a fork (or the initial flow).
// A section lives from its fork to its dump: dumpOldest records it in the
// run's result, takes it out of the section order and returns the shell to
// the machine's free list for the next fork (acquireSection).
//
// The fields are laid out for the loop that reads sections most: a renaming
// request's search step, which for each section it passes reads the link to
// the one before and the host, whether the section is renamed, one
// alias-table slot and its request count. Those fields, with what dumpOldest
// and the retire and address-rename picks test and compare, form a hot header
// at the front — every one of them starts in the first two cache lines — and
// the fetch state and the register snapshots, read once per fetch or
// suspension, come after it.
// TestSectionLayout pins both the header and the size.
type Section struct {
	// ---- hot header: read by every search step ----

	// ord is the section's order label: labels increase strictly along the
	// section order, oldest first, so two undumped sections compare by their
	// labels as by their places in the run's total order. A fork labels its
	// continuation between its neighbours' labels and moves no other one
	// (insertAfter).
	ord uint64
	// prev is the undumped section immediately before this one in the order,
	// nil for the oldest: the next section a renaming request searches.
	prev *Section
	Core int // hosting core, -1 until assignHost chooses it; fixed from then on
	// fetched counts every instruction the section ever fetched, renamed
	// those past the rename stage, memOps the memory ops fetched and memRen
	// those address-renamed.
	fetched, renamed, memOps, memRen int
	// nreqs counts the live renaming requests that name the section as their
	// from or target; dumpOldest keeps the section's tables while it is not 0.
	nreqs     int
	BaseLevel int32
	fetchDone bool

	maat maat // memory address alias table (8-byte words)
	// rat is the register alias table (+ request caches + fork copies): a
	// fixed array indexed by register, zero where the section has no producer
	// yet. The previous map paid hashing on every rename of a 17-entry
	// keyspace.
	rat [isa.NumRegs]cellID

	// ---- cold: fetch, retirement and statistics ----

	ID   int64    // creation sequence number
	next *Section // the undumped section after this one, nil for the newest
	// head and tail are the section's un-retired instructions, oldest first,
	// linked through DynInst.secNext: fetch appends, retire pops.
	head, tail *DynInst
	retired    int
	arQ        fifo[*DynInst] // memory ops awaiting in-order address renaming
	// waiting lists the requests parked at the section (idle-skip scheduler
	// only): they arrived before its renamings were done — the paper's
	// "enqueued in the ARQ" — and left Machine.reqs until wakeRequests.
	waiting *request

	// retireListed/arListed say the section is on its hosting core's
	// retireReady/arReady list (idle-skip scheduler only), so that it is
	// listed at most once; retireNext/arNext link it there. The completion of
	// its retire head, or the execution of its address-rename head, lists it
	// (listRetire, listAR) — both happen in a stage of the hosting core, so a
	// listing is never late: the head passes the strictly-older test from the
	// next cycle, and the core is being visited, hence armed, when it is
	// listed. The core's pick unlists the section when it finds the head no
	// longer complete (the previous head went, the next one has not finished).
	retireNext, arNext     *Section
	retireListed, arListed bool

	// stalled says the section's last fetched instruction is a conditional
	// branch the fetch stage could not compute. The execute-write-back stage
	// resolves it and leaves the redirect here — resumeAt the cycle, resumeIP
	// the target — because the branch may well have retired, and been
	// recycled, by the time a suspended section is picked again.
	stalled  bool
	curLevel int32 // fetch-time call level cursor
	resumeAt int64
	resumeIP int64
	startIP  int64
	fetchIP  int64

	createdAt  int64 // fork fetch cycle
	firstFetch int64
	lastRetire int64 // cycle of the latest retirement

	init   regFile // creation-message register copies
	rfSave regFile // fetch RF snapshot while suspended
}

func (s *Section) fullyRenamed() bool {
	return s.fetchDone && s.renamed == s.fetched
}

func (s *Section) memRenameDone() bool {
	return s.fullyRenamed() && s.memRen == s.memOps
}

func (s *Section) fullyRetired() bool {
	return s.fetchDone && s.retired == s.fetched
}

// sectionMsg is the section-creation message a fork sends to a hosting core.
// Messages live as values inside the per-core FIFO ring — no per-message
// allocation.
type sectionMsg struct {
	sec       *Section
	deliverAt int64
}

// Core is one core's pipeline state. The queues are reusable-buffer
// structures: the FIFOs slide instead of re-slicing, and the issue/load-store
// queues delete by swap (their storage order carries no meaning — selection
// orders by the explicit (section label, ordinal) comparison).
//
// Work reaches a core from outside its own stages in two ways only: a
// section-creation message pushed on pending (assignHost) and a parked
// instruction put back on iq or lsq (Machine.wake). Both arm the core in
// Machine.armed, which is all the idle-skip scheduler visits.
type Core struct {
	id        int
	rf        regFile // fetch-stage register file
	fetch     *Section
	pending   fifo[sectionMsg] // FIFO of section-creation messages
	suspended fifo[*Section]   // stalled sections set aside to fetch pending ones
	renameQ   fifo[*DynInst]
	iq        []*DynInst // waiting execution (unordered)
	lsq       []*DynInst // waiting memory access (unordered)
	// retireReady/arReady are the hosted sections whose retire head has
	// completed / whose address-rename head has executed (idle-skip scheduler
	// only; unordered, linked through Section.retireNext/arNext so that
	// listing allocates nothing). A section's instructions complete only in
	// this core's own stages, so the lists change only while the core is being
	// visited, and what pickRetire/pickAR find when the visit starts is what a
	// scan of the whole section order at the start of the cycle would have
	// found.
	retireReady, arReady *Section
	live                 int   // hosted, undumped sections; changed through Machine.setLive
	fetched              int64 // statistics
}

// Machine is the whole chip.
type Machine struct {
	cfg  Config
	prog *isa.Program
	// footprints is prog's decoded table: what each static instruction
	// reads, writes and is, read by a dynamic instruction's IP.
	footprints []isa.Footprint
	cores      []*Core
	// head and tail are the ends of the total order of the undumped
	// sections, oldest first, linked through Section.prev and Section.next: a
	// fork links its continuation in after the creator (insertAfter), a dump
	// unlinks the head (popOldest). dumped counts the sections unlinked, so a
	// section's position in the run's whole order is dumped plus the links
	// before it — counted only where a position is reported (position) — and
	// sections holds what the run's result lists of each dumped one, in that
	// order.
	head, tail *Section
	dumped     int
	sections   []SectionInfo
	// reqs holds the renaming requests processRequests steps each cycle: all
	// live ones under Config.Dense, otherwise those in flight or waiting for a
	// known cycle — a request waiting for an event is parked on the section or
	// cell that will produce it (Section.waiting, cell.reqs).
	reqs []*request
	dmh  *emu.Memory
	arch [isa.NumRegs]uint64

	cycle     int64
	nextSecID int64
	rrHost    int // round-robin tiebreak for host choice
	progress  int64
	lastMove  int64
	hltSeen   bool
	err       error // first fault (bad fetch, div by zero, ...)
	// quietMove records a state change that moves no counter (today only the
	// fetch stage suspending a stalled section); the idle-skip scheduler must
	// not jump the clock over a cycle that mutated anything.
	quietMove bool

	pendingCreates   int
	regReqs, memReqs int64

	// armed is the set of cores the idle-skip scheduler visits: every core
	// that may have something to do is in it (see Core), and a visit that
	// finds nothing takes the core out. visits counts those visits — the
	// scheduler's own work, which tests bound by the run's events.
	armed  bitset
	visits int64
	// inFlight counts the fetched, un-retired instructions and peakInFlight
	// its maximum over the run: the window the instruction arena has to hold,
	// which tests compare with what it did allocate.
	inFlight, peakInFlight int
	// fetchDone and retireDone are the cycles of the latest fetch and the
	// latest retirement, folded as they happen.
	fetchDone, retireDone int64
	// loads indexes the cores by Core.live for chooseHost.
	loads hostIndex

	// NoC message accounting: section-creation messages sent by forks,
	// request-forwarding messages between cores, value responses travelling
	// back, and requests answered by the committed state (DMH/loader).
	createMsgs, reqHops, respMsgs, dmhAnswers int64

	// Arenas, free lists and scratch buffers behind the allocation-free hot
	// path (pool.go). All of them survive Reset, so a warmed machine re-runs
	// without growing the heap.
	dyns    arena[DynInst]
	dynFree *DynInst // retired instructions, linked through secNext
	// cells is the cell arena a cellID indexes (cells[0] is never handed
	// out). names[h] counts the names of h: the alias-table slots (RAT and
	// MAAT entries of undumped sections) that hold it, the requests that are
	// to fill it, and the in-flight instructions that overwrote a slot
	// holding it (DynInst.prev). Instruction sources are not names; the
	// slot they were read from outlives them. cellFree heads the list of
	// cells whose count went back to zero, linked through their value words,
	// for newCell to hand out first.
	cells    []cell
	names    []uint32
	cellFree cellID
	secFree  []*Section // shells of dumped sections, for the next fork
	maatFree [][]maatEntry
	reqAll   []*request // every request object the machine owns, free or not
	reqFree  []*request
	// scratch is the register file the stages run isa.Exec on (exec.go).
	scratch [isa.NumRegs]uint64

	// sink receives the row of every instruction as it retires (SetSink).
	sink func(InstTiming)
	// poison is the tests' proof that nothing reads a retired instruction, a
	// freed cell or a dumped section: recycle, freeCell and dumpOldest
	// overwrite the object with absurd values and drop it instead of reusing
	// it, and the run must not notice. A poisoned run also checks the section
	// order at every fork (orderError).
	poison bool
	// relabelAll is the tests' proof that no result depends on the order
	// labels' values, only on how they compare: every fork relabels the whole
	// order, as it otherwise does only when a gap is used up.
	relabelAll bool
}

// DMH returns the data memory hierarchy (the committed memory), for
// inspection after Run.
func (m *Machine) DMH() *emu.Memory { return m.dmh }

// withDefaults returns cfg with every zero field replaced by its default.
func (cfg Config) withDefaults() Config {
	if cfg.Net == nil {
		cfg.Net = noc.NewCrossbar(cfg.Cores, 1)
	}
	if cfg.CreateLatency == 0 {
		cfg.CreateLatency = DefaultCreateLatency
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 100 << 20
	}
	return cfg
}

// New prepares a machine for prog: an empty machine, bound. bind is the only
// way a machine gets a program — a fresh one here, a parked one in Pool.Get.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	m := &Machine{
		dyns: newArena[DynInst](dynChunk),
		dmh:  emu.NewMemory(),
	}
	if err := m.bind(prog, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// bind points the machine at prog under cfg and leaves it ready to run.
// Nothing a warmed machine owns (arenas, section shells, alias-table backings,
// request free list, queue buffers, DMH pages) depends on the program; only
// prog, cfg and the core count do, and bind replaces all three. Validation
// comes first, so a failed bind leaves the machine exactly as it was.
func (m *Machine) bind(prog *isa.Program, cfg Config) error {
	if cfg.Cores < 1 {
		return fmt.Errorf("machine: need at least one core")
	}
	// A network over other cores charges latencies between cores it does
	// not have: a ring over fewer cores makes some of them negative.
	if cfg.Net != nil && cfg.Net.Cores() != cfg.Cores {
		return fmt.Errorf("machine: network %s has %d cores, Config.Cores is %d", cfg.Net.Name(), cfg.Net.Cores(), cfg.Cores)
	}
	// An in-flight instruction keeps its cycles and its IP in 32 bits.
	if cfg.MaxCycles > math.MaxInt32 {
		return fmt.Errorf("machine: MaxCycles %d exceeds %d", cfg.MaxCycles, math.MaxInt32)
	}
	if len(prog.Text) > math.MaxInt32 {
		return fmt.Errorf("machine: %d instructions exceed %d", len(prog.Text), math.MaxInt32)
	}
	for i := range prog.Text {
		switch prog.Text[i].Op {
		case isa.CALL, isa.RET:
			return fmt.Errorf("machine: instruction %d is %s; the machine executes fork programs (compile mini-C with minic.ModeFork)", i, prog.Text[i].Op)
		}
	}
	m.release()
	m.prog, m.footprints, m.cfg = prog, prog.Footprints(), cfg.withDefaults()
	// Cores past the new count stay in the slice's spare capacity — scrubbed
	// by release, queue buffers intact — for a wider chip. A chip wider than
	// any before gets its new cores from one allocation.
	m.cores = resized(m.cores, cfg.Cores)
	built := cfg.Cores
	for built > 0 && m.cores[built-1] == nil {
		built--
	}
	slab := make([]Core, cfg.Cores-built)
	for i := range slab {
		slab[i].id = built + i
		m.cores[built+i] = &slab[i]
	}
	m.boot()
	return nil
}

// resized returns s with length n, keeping what its storage already holds
// and zero-filling any growth.
func resized[T any](s []T, n int) []T {
	s = s[:cap(s)]
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}

// Reset rewinds the machine to its post-New state for another run of the
// same program, recycling every per-run object: sections, dynamic
// instructions, cells, requests, alias-table backings and queue buffers all
// return to the machine's pools, and the committed memory is re-seeded with
// the program's data segment. Inputs injected into the DMH must be
// re-injected by the caller, exactly as after New, and so must a row sink
// (SetSink). A warmed machine (one completed Run) re-runs with no steady-state
// heap allocation — the property pinned by internal/bench's
// allocation-regression tests. It is bind without the rebinding: same
// program, same configuration.
func (m *Machine) Reset() {
	m.release()
	m.boot()
}

// release returns the previous run's objects to the machine's pools and
// zeroes every per-run counter, leaving prog, cfg and the cores in place.
func (m *Machine) release() {
	for s := m.head; s != nil; {
		next := s.next // releaseSection scrubs the link
		m.releaseSection(s)
		s = next
	}
	m.head, m.tail = nil, nil
	m.sections = m.sections[:0]
	for _, c := range m.cores {
		c.rf = regFile{}
		c.fetch = nil
		c.pending.Reset()
		c.suspended.Reset()
		c.renameQ.Reset()
		clear(c.iq)
		c.iq = c.iq[:0]
		clear(c.lsq)
		c.lsq = c.lsq[:0]
		c.retireReady, c.arReady = nil, nil
		c.live = 0
		c.fetched = 0
	}
	// Parked requests are on no list release could walk cheaply, so the pool
	// is rebuilt from the owner list.
	clear(m.reqs)
	m.reqs = m.reqs[:0]
	for _, r := range m.reqAll {
		*r = request{}
	}
	m.reqFree = append(m.reqFree[:0], m.reqAll...)
	m.dyns.reset()
	m.dynFree = nil
	m.resetCells()
	m.sink, m.poison, m.relabelAll = nil, false, false
	m.cycle, m.nextSecID, m.lastMove, m.progress, m.visits = 0, 0, 0, 0, 0
	m.inFlight, m.peakInFlight = 0, 0
	m.fetchDone, m.retireDone = 0, 0
	m.rrHost, m.dumped = 0, 0
	m.hltSeen, m.quietMove = false, false
	m.err = nil
	m.pendingCreates = 0
	m.regReqs, m.memReqs = 0, 0
	m.createMsgs, m.reqHops, m.respMsgs, m.dmhAnswers = 0, 0, 0, 0
	m.dmh.Reset()
}

// boot seeds the committed state and the initial section, the shared tail of
// bind and Reset.
func (m *Machine) boot() {
	// No core is armed and every core is unloaded, at the width bind chose.
	m.armed = resized(m.armed, (len(m.cores)+63)>>6)
	clear(m.armed)
	m.loads.reset(len(m.cores))
	m.dmh.CopyIn(isa.DataBase, m.prog.Data)
	m.arch = [isa.NumRegs]uint64{}
	m.arch[isa.RSP] = isa.StackTop

	// The initial section: all registers full with the entry state.
	s := m.newSection(m.prog.Entry, 0, 0)
	s.init = regFile{v: m.arch, full: 1<<isa.NumRegs - 1}
	m.head, m.tail = s, s
	m.assignHost(s, 0)
}

func (m *Machine) newSection(startIP int64, baseLevel int32, createdAt int64) *Section {
	s := m.acquireSection()
	s.ID = m.nextSecID
	s.Core = -1
	s.BaseLevel = baseLevel
	s.startIP = startIP
	s.fetchIP = startIP
	s.curLevel = baseLevel
	s.createdAt = createdAt
	m.nextSecID++
	return s
}

// insertAfter places created immediately after creator in the total order
// (the paper's §2: "new sections are inserted in place in the list of
// existing sections ... building the sequential trace of the run"). created
// is labelled halfway between the creator's label and its successor's (the
// top of the label space when the creator is the newest), which moves no
// other label. Only when that gap has no room left is the whole order
// relabelled, a walk of the undumped sections. That is rare: spread evenly
// over the 64-bit label space, even 3 072 sections leave every gap room for
// 52 halvings.
func (m *Machine) insertAfter(creator, created *Section) {
	if m.relabelAll || gapAfter(creator) < 2 {
		m.relabel()
	}
	created.ord = creator.ord + gapAfter(creator)/2
	next := creator.next
	created.prev, created.next = creator, next
	creator.next = created
	if next != nil {
		next.prev = created
	} else {
		m.tail = created
	}
	if m.poison && m.err == nil {
		m.err = m.orderError()
	}
}

// gapAfter is the room between s's label and its successor's, or the top of
// the label space when s is the newest.
func gapAfter(s *Section) uint64 {
	if s.next == nil {
		return math.MaxUint64 - s.ord
	}
	return s.next.ord - s.ord
}

// relabel spreads the undumped sections' labels evenly over the label space,
// in order, from 0.
func (m *Machine) relabel() {
	step := math.MaxUint64 / uint64(m.undumped()+1)
	var ord uint64
	for s := m.head; s != nil; s = s.next {
		s.ord = ord
		ord += step
	}
}

// undumped counts the sections in the order.
func (m *Machine) undumped() int {
	n := 0
	for s := m.head; s != nil; s = s.next {
		n++
	}
	return n
}

// popOldest unlinks the oldest undumped section and counts it dumped.
func (m *Machine) popOldest() {
	if m.head = m.head.next; m.head != nil {
		m.head.prev = nil
	} else {
		m.tail = nil
	}
	m.dumped++
}

// position returns s's position in the run's whole section order: the
// sections dumped before it and the undumped ones linked before it. It walks
// the order, so only what reports a position counts it.
func (m *Machine) position(s *Section) int {
	n := m.dumped
	for p := s.prev; p != nil; p = p.prev {
		n++
	}
	return n
}

// orderError reports how the order is not a well-formed list, or nil: every
// link must be matched by the one back, the labels must increase strictly
// from the head, and the walk must end at the tail. Poisoned runs check it at
// every fork.
func (m *Machine) orderError() error {
	var prev *Section
	for s := m.head; s != nil; prev, s = s, s.next {
		if s.prev != prev || prev != nil && prev.ord >= s.ord {
			return fmt.Errorf("machine: section order broken at section %d", s.ID)
		}
	}
	if m.tail != prev {
		return fmt.Errorf("machine: section order does not end at its tail")
	}
	return nil
}

// chooseHost picks the hosting core for a new section (the paper leaves
// load balancing out of scope). The default policy spreads: the least
// loaded core wins, round-robin on ties. With Config.MaxSectionsPerCore > 0
// the policy packs instead: the most loaded core still under the cap wins,
// so sections fill one core after another; when every core is at the cap
// the least loaded core is used (the cap is soft). scanHost is the policy's
// executable definition and the dense scheduler's chooser; the production
// scheduler asks the host index, which must name the same core.
func (m *Machine) chooseHost() int {
	var best int
	if m.cfg.Dense {
		best = m.scanHost()
	} else {
		best = m.loads.pick(m.rrHost, m.cfg.MaxSectionsPerCore)
	}
	m.rrHost = (best + 1) % len(m.cores)
	return best
}

// scanHost applies the host policy by reading every core's load, starting
// at rrHost.
func (m *Machine) scanHost() int {
	best, bestLoad := -1, int(^uint(0)>>1)
	packed, packedLoad := -1, -1
	n := len(m.cores)
	for i := 0; i < n; i++ {
		c := m.cores[(m.rrHost+i)%n]
		// live already counts sections whose creation message is still in
		// flight (assignHost increments it at assignment time).
		load := c.live
		if load < bestLoad {
			best, bestLoad = c.id, load
		}
		if m.cfg.MaxSectionsPerCore > 0 && load < m.cfg.MaxSectionsPerCore && load > packedLoad {
			packed, packedLoad = c.id, load
		}
	}
	if packed >= 0 {
		best = packed
	}
	return best
}

// setLive records that c now hosts live undumped sections, keeping the host
// index in step.
func (m *Machine) setLive(c *Core, live int) {
	m.loads.move(c.id, c.live, live)
	c.live = live
}

func (m *Machine) assignHost(s *Section, deliverAt int64) {
	host := m.chooseHost()
	s.Core = host
	c := m.cores[host]
	m.setLive(c, c.live+1)
	c.pending.Push(sectionMsg{sec: s, deliverAt: deliverAt})
	m.armed.set(host)
	m.pendingCreates++
}

// Run simulates until completion and returns the result. The default
// scheduler is idle-skip (see runIdleSkip); Config.Dense selects the
// reference dense loop. Both produce bit-identical results.
func (m *Machine) Run() (*Result, error) {
	if m.cfg.Dense {
		return m.runDense()
	}
	return m.runIdleSkip()
}

// runDense is the reference scheduler: every cycle visits every core, every
// stage and every request, whether or not anything can make progress. It is
// kept as the oracle the idle-skip scheduler is cross-checked against.
func (m *Machine) runDense() (*Result, error) {
	for {
		if m.err != nil {
			return nil, m.err
		}
		if m.done() {
			return m.result(), nil
		}
		m.cycle++
		if m.cycle > m.cfg.MaxCycles {
			return nil, fmt.Errorf("machine: exceeded %d cycles", m.cfg.MaxCycles)
		}
		before := m.progress
		for _, c := range m.cores {
			m.stageRetire(c)
			m.stageMA(c)
			m.stageAR(c)
			m.stageEW(c)
			m.stageRR(c)
			m.stageFD(c)
		}
		m.processRequests()
		m.dumpOldest()
		if m.progress != before {
			m.lastMove = m.cycle
		} else if m.cycle-m.lastMove > stallLimit {
			return nil, fmt.Errorf("machine: no progress for %d cycles at cycle %d: %s",
				stallLimit, m.cycle, m.stuckReport())
		}
	}
}

// runIdleSkip is the work-list-driven scheduler: nothing in it walks the chip
// or the section order. Four observations make it exact (not approximate):
//
//   - The two stages that scan the whole section order per core (retire and
//     address rename) pick the oldest hosted section whose head is eligible.
//     A head becomes eligible through one event — it completes (retire) or
//     executes (address rename) — and that event is a stage of the hosting
//     core, so the stage lists the section on the core's retireReady/arReady
//     (listRetire, listAR) and the pick is the oldest listed section whose
//     head passes the same strictly-older test the scans apply (pickRetire,
//     pickAR). A listing cannot be late: a timestamp set this cycle fails the
//     test until the next cycle either way. And picking when the core is
//     visited equals picking at the start of the cycle, as the scans do
//     relative to the other cores: no other core's stage completes this
//     core's instructions, and a fork elsewhere — even one that relabels the
//     order — reorders no two existing sections, so the minimum is stable.
//   - A core can act only on its own slots and queues (the fetch slot, the
//     message FIFO, the suspension list, the rename/issue/load-store queues)
//     and its ready lists, and work reaches those from outside the core's own
//     stages in two ways only: a section-creation message (assignHost) and a
//     parked instruction coming back (Machine.wake). Both arm the core in
//     Machine.armed; the scheduler visits the armed cores, in ascending order
//     like the dense loop — so the forks of one cycle reach chooseHost in the
//     same order — and disarms a core when a visit finds no pick, nothing in
//     the slots and queues (coreActive) and empty ready lists. Arming cannot
//     be late either: a message is consumable only after its delivery cycle
//     and a woken value only from the next cycle, so it does not matter
//     whether the core is still visited in the cycle that armed it.
//   - If a whole cycle mutates nothing (no stage fired, no request moved,
//     no section was suspended or dumped), then the machine state at the
//     next cycle is identical and the earliest cycle at which anything can
//     act is decided purely by stored timestamps (stage completion times,
//     message delivery times, request availability, value-ready times).
//     nextWake enumerates every such timestamp, so the clock can jump
//     straight to the minimum — every skipped cycle is one the dense loop
//     would have spent doing nothing.
//   - An instruction or request that waits for an event rather than a time —
//     a value not yet produced, a section not yet renamed — cannot act before
//     the cycle after the event: a cell filled in cycle c carries a ready
//     time >= c and consumers need it strictly older, and a request woken by
//     a stage of cycle c is stepped by the processRequests of cycle c as if
//     it had been polled. So such work is parked on the cell or section and
//     comes back to the queues when that is written (Machine.fill,
//     wakeRequests): the scans and nextWake see only what can have a time.
//
// Placing a forked section reads no core either: chooseHost asks the host
// index (Machine.loads), which setLive keeps in step with Core.live. The dense
// loop keeps all three long ways — the per-core scans of the section order,
// the visit of every core, the linear chooser (scanHost) — through the same
// apply functions, so every dense ≡ idle-skip comparison witnesses the ready
// lists, the armed set and the host index.
//
// The stall detector and the cycle cap are clamped into the jump so that
// pathological programs fail at the same cycle, with the same error, as
// under the dense loop.
func (m *Machine) runIdleSkip() (*Result, error) {
	acted := true
	for {
		if m.err != nil {
			return nil, m.err
		}
		if m.done() {
			return m.result(), nil
		}
		if acted {
			m.cycle++
		} else {
			next := m.nextWake()
			if bound := m.lastMove + stallLimit + 1; next > bound {
				next = bound
			}
			if bound := m.cfg.MaxCycles + 1; next > bound {
				next = bound
			}
			m.cycle = next
		}
		if m.cycle > m.cfg.MaxCycles {
			return nil, fmt.Errorf("machine: exceeded %d cycles", m.cfg.MaxCycles)
		}
		before, hops := m.progress, m.reqHops
		m.quietMove = false
		for i := m.armed.next(0); i >= 0; i = m.armed.next(i + 1) {
			c := m.cores[i]
			m.visits++
			rp, ap := m.pickRetire(c), m.pickAR(c)
			if rp == nil && ap == nil && !coreActive(c) {
				if c.retireReady == nil && c.arReady == nil {
					m.armed.unset(i)
				}
				continue
			}
			if rp != nil {
				m.retireApply(rp, rp.head)
			}
			m.stageMA(c)
			if ap != nil {
				m.arApply(c, ap, ap.arQ.Front())
			}
			m.stageEW(c)
			m.stageRR(c)
			m.stageFD(c)
		}
		m.processRequests()
		m.dumpOldest()
		acted = m.progress != before || m.reqHops != hops || m.quietMove
		if m.progress != before {
			m.lastMove = m.cycle
		} else if m.cycle-m.lastMove > stallLimit {
			return nil, fmt.Errorf("machine: no progress for %d cycles at cycle %d: %s",
				stallLimit, m.cycle, m.stuckReport())
		}
	}
}

// coreActive reports whether any stage other than retire and address rename
// (which have explicit picks) could possibly act on c this cycle. Those
// stages read only the core's own slots and queues, so a core with none of
// that state is skipped without calling its stages.
func coreActive(c *Core) bool {
	return c.fetch != nil ||
		!c.pending.Empty() || !c.suspended.Empty() ||
		!c.renameQ.Empty() || len(c.iq) > 0 || len(c.lsq) > 0
}

// stallLimit aborts a run in which nothing architectural has moved for this
// many cycles: the deadlock detector.
const stallLimit = 10000

// never is the wake time of work that is blocked on a value or condition not
// yet produced: it cannot become runnable without some other action first,
// and that action has its own wake entry.
const never = int64(math.MaxInt64)

// nextWake returns the earliest cycle at which anything in the machine could
// act, assuming nothing acted in the cycle just simulated (so every blocking
// condition is decided by stored timestamps alone). Entries may be
// conservative (too early just wastes a visit); they must never be late.
// Each entry mirrors one `... < m.cycle` / `... >= m.cycle` comparison in
// the stage and request code.
func (m *Machine) nextWake() int64 {
	w := never
	wake := func(t int64) {
		// Anything at or before the current cycle can only be acted on from
		// cycle+1.
		if t <= m.cycle {
			t = m.cycle + 1
		}
		if t < w {
			w = t
		}
	}
	// Everything a core could act on is state of an armed core: its slots and
	// queues, and the heads of the sections on its ready lists (entries whose
	// head is no longer complete have no time and are skipped, as pickRetire
	// and pickAR will drop them).
	for i := m.armed.next(0); i >= 0; i = m.armed.next(i + 1) {
		c := m.cores[i]
		if c.fetch != nil {
			if s := c.fetch; s.stalled {
				if s.resumeAt > 0 {
					wake(s.resumeAt + 1) // branch redirect visible the cycle after EW
				}
			} else {
				wake(m.cycle + 1) // fetch in flight: one instruction per cycle
			}
		}
		if !c.pending.Empty() {
			wake(c.pending.Front().deliverAt + 1) // creation message consumable
		}
		for j, n := 0, c.suspended.Len(); j < n; j++ {
			if s := c.suspended.At(j); s.stalled && s.resumeAt > 0 {
				wake(s.resumeAt + 1)
			}
		}
		if !c.renameQ.Empty() {
			wake(int64(c.renameQ.Front().tFD) + 1) // rename the cycle after fetch
		}
		// A resident blocked on an unproduced value reads never: no wake until
		// another action produces the source.
		for _, d := range c.iq {
			w, _ := m.ewWake(d)
			wake(w)
		}
		for _, d := range c.lsq {
			w, _ := m.maWake(d)
			wake(w)
		}
		for s := c.arReady; s != nil; s = s.arNext {
			if s.arQ.Len() > 0 {
				if h := s.arQ.Front(); h.tEW > 0 {
					wake(int64(h.tEW) + 1)
				}
			}
		}
		for s := c.retireReady; s != nil; s = s.retireNext {
			if h := s.head; h != nil && h.done() {
				if h.isMem() {
					wake(int64(h.tMA) + 1)
				} else {
					wake(int64(h.tEW) + 1)
				}
			}
		}
	}
	for _, r := range m.reqs {
		if r.availableAt > m.cycle {
			wake(r.availableAt) // in flight: may act on arrival
			continue
		}
		// Waiting at its target for the producer's value (a target that is
		// not yet fully renamed, or a producer slot not yet filled, can only
		// change through another action, which has its own wake entry).
		if t := r.target; t != nil {
			var p cellID
			if r.kind == reqReg {
				if t.fullyRenamed() {
					p = t.rat[r.reg]
				}
			} else if t.memRenameDone() {
				p = t.maat.get(r.addr)
			}
			if p != 0 {
				if at := m.cells[p].readyAt(); at >= 0 {
					wake(at + 1) // export reads the value the cycle after
				}
			}
		}
	}
	return w
}

// ewWake returns the earliest cycle d can pass the execute-write-back stage
// (a stage boundary: the cycle after the last of its rename and relevant
// source-ready times), or never and the blocking cell while a source value
// has not been produced yet. A known wake is cached on the instruction — cell
// ready times are write-once, so it cannot change.
func (m *Machine) ewWake(d *DynInst) (int64, *cell) {
	if d.ewWakeAt != 0 {
		return int64(d.ewWakeAt), nil
	}
	if d.tRR == 0 {
		return never, nil // not renamed yet: the rename-queue entry covers it
	}
	t := int64(d.ewSrcMax)
	if t == 0 {
		t = int64(d.tRR)
	}
	if !d.computedAtFetch || d.isMem() {
		mem := d.isMem()
		for i := d.ewSrcIdx; i < d.nsrcs; i = d.ewSrcIdx {
			if mem && d.addrSrcs&(1<<i) == 0 {
				d.ewSrcIdx++
				continue
			}
			c := &m.cells[d.srcs[i]]
			at := c.readyAt()
			if at < 0 {
				d.ewSrcMax = cyc32(t)
				return never, c
			}
			if at > t {
				t = at
			}
			d.ewSrcIdx++
		}
	}
	d.ewWakeAt = cyc32(t + 1)
	return int64(d.ewWakeAt), nil
}

// maWake returns the earliest cycle d can pass the memory-access stage, or
// never and the blocking cell while its loaded value or a source is not yet
// produced. A known wake is cached, like ewWake's.
func (m *Machine) maWake(d *DynInst) (int64, *cell) {
	if d.maWakeAt != 0 {
		return int64(d.maWakeAt), nil
	}
	if d.tAR == 0 {
		return never, nil // not address-renamed yet: the AR head entry covers it
	}
	t := int64(d.maSrcMax)
	if t == 0 {
		t = int64(d.tAR)
	}
	if d.maSrcIdx == 0 {
		if d.memSrc != 0 {
			c := &m.cells[d.memSrc]
			at := c.readyAt()
			if at < 0 {
				d.maSrcMax = cyc32(t)
				return never, c
			}
			if at > t {
				t = at
			}
		}
		d.maSrcIdx = 1
	}
	for d.maSrcIdx <= d.nsrcs {
		c := &m.cells[d.srcs[d.maSrcIdx-1]]
		at := c.readyAt()
		if at < 0 {
			d.maSrcMax = cyc32(t)
			return never, c
		}
		if at > t {
			t = at
		}
		d.maSrcIdx++
	}
	d.maWakeAt = cyc32(t + 1)
	return int64(d.maWakeAt), nil
}

func (m *Machine) done() bool {
	if !m.hltSeen || m.pendingCreates > 0 {
		return false
	}
	return m.head == nil
}

// stuckReport summarises pipeline state for deadlock diagnostics. The request
// total counts every unanswered request (each answer is one response
// message), parked or not, so the text is the same under both schedulers.
func (m *Machine) stuckReport() string {
	var b strings.Builder
	for sec, pos := m.head, m.dumped; sec != nil; sec, pos = sec.next, pos+1 {
		fmt.Fprintf(&b, "[sec %d core %d pos %d: %d insts fetchDone=%v renamed=%d retired=%d memRen=%d/%d stalled=%v] ",
			sec.ID, sec.Core, pos, sec.fetched, sec.fetchDone, sec.renamed, sec.retired, sec.memRen, sec.memOps, sec.stalled)
	}
	fmt.Fprintf(&b, "reqs=%d", m.regReqs+m.memReqs-m.respMsgs)
	return b.String()
}

// dumpOldest retires the oldest fully retired sections into the DMH and the
// architectural register file (the paper's §4.2 footnote 6: "the oldest
// section ... dumps its renamings to the data memory hierarchy"). A dumped
// section leaves the machine: nothing can name it any more — its
// instructions have retired, no request is at it, and a search stops at the
// oldest undumped section — so its record goes to the run's result, it leaves
// the section order and its shell goes back to the free list.
func (m *Machine) dumpOldest() {
	for m.head != nil {
		s := m.head
		if !s.fullyRetired() {
			return
		}
		// A section with pending incoming requests keeps its tables until
		// they are answered.
		if s.nreqs > 0 {
			return
		}
		// Memory writes: the MAAT names, for every word the section stored
		// to, the cell of its last store. Once committed, an entry lets go of
		// its cell: the section can no longer be searched by renaming requests.
		for i := range s.maat.entries {
			e := &s.maat.entries[i]
			if e.p == 0 {
				continue
			}
			if e.store {
				m.dmh.WriteU64(e.key, m.cells[e.p].v)
			}
			m.unname(e.p)
		}
		// Register state: every renamed or cached register value.
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if h := s.rat[r]; h != 0 {
				if c := &m.cells[h]; c.readyAt() >= 0 {
					m.arch[r] = c.v
				}
				m.unname(h)
				s.rat[r] = 0
			}
		}
		// Its position is final: nothing can be inserted before it any more.
		m.sections = append(m.sections, SectionInfo{
			ID: s.ID, Pos: m.dumped, Core: s.Core, BaseLevel: s.BaseLevel,
			Instructions: s.fetched, CreatedAt: s.createdAt, FirstFetch: s.firstFetch,
			LastRetire: s.lastRetire,
		})
		m.popOldest()
		c := m.cores[s.Core]
		m.setLive(c, c.live-1)
		unlist(c, s)
		m.dropSection(s)
		m.progress++
	}
}
