package machine

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// older orders dynamic instructions by (section order position, ordinal).
func older(a, b *DynInst) bool {
	if a.Sec.Pos != b.Sec.Pos {
		return a.Sec.Pos < b.Sec.Pos
	}
	return a.Idx < b.Idx
}

// ---------------------------------------------------------------- fetch ----

// branchResumable reports whether a stalled section's branch redirect is
// usable by the fetch stage this cycle. The execute-write-back stage of cycle
// t publishes the branch target at the end of t, so fetch may resume at t+1 —
// the same strictly-older boundary every other consumer of a stage result
// applies (ewReady, maReady, stageRetire). This helper is the single home of
// that comparison; TestStallResumeLatency pins the one-cycle resume latency
// so an off-by-one (resuming at t+2, or same-cycle at t) cannot creep back in
// at any of the three call sites (stalled fetch, hasFetchWork, pickSection).
func (m *Machine) branchResumable(s *Section) bool {
	return s.stalled && s.resumeAt > 0 && s.resumeAt < m.cycle
}

// resume redirects a stalled section's fetch to its resolved branch target.
func (s *Section) resume() {
	s.fetchIP = s.resumeIP
	s.stalled, s.resumeAt = false, 0
}

// stageFD implements the fetch-decode-and-partly-execute stage (Fig. 8):
// one instruction per cycle, simple ALU and control instructions computed
// in-stage when their sources are full in the stage-local register file.
func (m *Machine) stageFD(c *Core) {
	if c.fetch == nil {
		m.pickSection(c)
		if c.fetch == nil {
			return
		}
	}
	sec := c.fetch
	if sec.stalled {
		if m.branchResumable(sec) {
			sec.resume()
			m.progress++
		} else {
			// A stalled fetch sets the section aside when there is other
			// fetch work: a queued section-creation message or a suspended
			// section whose branch has resolved (engineering extension over
			// the paper, which leaves the interleaving unspecified; this
			// guarantees deadlock freedom when sections outnumber cores).
			if m.hasFetchWork(c) {
				sec.rfSave = c.rf
				c.suspended.Push(sec)
				c.fetch = nil
				m.quietMove = true // state change with no counter move
			}
			return
		}
	}
	if sec.fetchIP < 0 || sec.fetchIP >= int64(len(m.prog.Text)) {
		m.err = fmt.Errorf("machine: section %d fetch out of text at ip=%d", sec.ID, sec.fetchIP)
		return
	}
	in, fp := &m.prog.Text[sec.fetchIP], &m.footprints[sec.fetchIP]
	d := m.newDyn()
	d.Sec = sec
	d.Idx = int32(sec.fetched)
	d.IP = int32(sec.fetchIP)
	d.Level = sec.curLevel
	d.class = fp.Class
	d.tFD = int32(m.cycle)
	if sec.tail == nil {
		sec.head = d
	} else {
		sec.tail.secNext = d
	}
	sec.tail = d
	sec.fetched++
	if m.inFlight++; m.inFlight > m.peakInFlight {
		m.peakInFlight = m.inFlight
	}
	m.fetchDone = m.cycle
	c.renameQ.Push(d)
	c.fetched++
	m.progress++
	next := sec.fetchIP + 1

	// isa.Exec runs on the scratch register file, filled from the stage's.
	regs := &m.scratch
	full := func(rs []isa.Reg) bool {
		for _, r := range rs {
			if !c.rf.has(r) {
				return false
			}
			regs[r] = c.rf.v[r]
		}
		return true
	}
	markEmpty := func() {
		for _, r := range fp.Uniq.Writes() {
			c.rf.empty(r)
		}
	}

	switch d.class {
	case isa.ClassSimple:
		if full(fp.Uniq.Reads()) {
			if _, ok := m.exec(d, regs, 0); !ok {
				return
			}
			for _, r := range fp.Uniq.Writes() {
				c.rf.set(r, regs[r])
			}
			d.computedAtFetch = true
		} else {
			markEmpty()
		}
	case isa.ClassComplex:
		// Complex integer instructions are never computed in the fetch
		// stage (§4.1), even when their sources are full.
		markEmpty()
	case isa.ClassLoad, isa.ClassStore:
		// The register half of push/pop (the rsp update) is simple and is
		// computed in-stage when rsp is full, keeping the stack discipline
		// flowing through the fetch stage.
		rspFull := c.rf.has(isa.RSP)
		markEmpty()
		if (in.Op == isa.PUSH || in.Op == isa.POP) && rspFull {
			regs[isa.RSP] = c.rf.v[isa.RSP]
			nrsp := stackHalf(in, regs)
			m.setReg(d, isa.RSP, nrsp)
			c.rf.set(isa.RSP, nrsp)
		}
	case isa.ClassControl:
		switch in.Op {
		case isa.JMP:
			next = in.Target
			d.computedAtFetch = true
		case isa.Jcc:
			if c.rf.has(isa.Flags) {
				if in.Cond.Eval(isa.FlagsVal(c.rf.v[isa.Flags])) {
					next = in.Target
				}
				d.computedAtFetch = true
			} else {
				// The branch target cannot be computed: fetch stalls until
				// the execute stage resolves it (Fig. 8: "IP is set to
				// empty ... if target is not computed").
				sec.stalled = true
			}
		case isa.FORK:
			m.doFork(c, sec, d)
			next = in.Target
			d.computedAtFetch = true
			sec.curLevel++
		case isa.ENDFORK, isa.HLT:
			d.computedAtFetch = true
			sec.fetchDone = true
			c.fetch = nil
			if in.Op == isa.HLT {
				m.hltSeen = true
			}
		}
	}
	sec.fetchIP = next
}

// hasFetchWork reports whether an idle (or stalled) fetch stage has something
// else it could usefully fetch.
func (m *Machine) hasFetchWork(c *Core) bool {
	if !c.pending.Empty() && c.pending.Front().deliverAt < m.cycle {
		return true
	}
	for i, n := 0, c.suspended.Len(); i < n; i++ {
		if m.branchResumable(c.suspended.At(i)) {
			return true
		}
	}
	return false
}

// pickSection chooses what the idle fetch stage works on next: first any
// suspended section whose stalled branch has resolved, then the head of the
// section-creation FIFO (a message is consumed the cycle after delivery).
func (m *Machine) pickSection(c *Core) {
	for i, n := 0, c.suspended.Len(); i < n; i++ {
		s := c.suspended.At(i)
		if m.branchResumable(s) {
			c.suspended.Remove(i)
			s.resume()
			c.rf = s.rfSave // fetch RF as saved at suspension
			c.fetch = s
			m.progress++
			return
		}
	}
	if !c.pending.Empty() && c.pending.Front().deliverAt < m.cycle {
		msg := c.pending.Pop()
		m.pendingCreates--
		sec := msg.sec
		c.rf = sec.init
		sec.firstFetch = m.cycle
		c.fetch = sec
		m.progress++
	}
}

// doFork creates the continuation section (starting at the instruction after
// the fork) and sends its creation message: the forked IP, the stack pointer
// and the non-volatile registers (§4.1). Registers that are not computed at
// the fork point cannot travel in the message; they are linked to the
// creator's current producers when the fork passes the rename stage (at that
// point every older write has been renamed and no younger one exists, so the
// creator's RAT entry is exactly the value the copy must carry).
func (m *Machine) doFork(c *Core, sec *Section, d *DynInst) {
	created := m.newSection(int64(d.IP)+1, sec.curLevel, m.cycle)
	for _, r := range emu.NonVolatile {
		if c.rf.has(r) {
			created.init.set(r, c.rf.v[r])
		} else {
			d.pendingCopy |= 1 << r
		}
	}
	d.createdSec = created
	m.insertAfter(sec, created)
	// The new section sits between sec and whatever follows it: a request
	// parked at sec must now search it first.
	m.wakeRequests(&sec.waiting)
	m.createMsgs++
	m.assignHost(created, m.cycle+m.cfg.CreateLatency)
}

// --------------------------------------------------------------- rename ----

// ratLookup returns the section's current producer for register r, creating
// the creation-copy constant or the request-backed cache slot on a miss
// (§4.2: a missing source allocates a caching destination and sends a
// renaming request backwards along the section order). The slot it fills
// names the new cell.
func (m *Machine) ratLookup(sec *Section, r isa.Reg, d *DynInst) cellID {
	h := sec.rat[r]
	if h == 0 {
		h = m.newCell()
		if sec.init.has(r) {
			c := &m.cells[h]
			c.v, c.at = sec.init.v[r], sec.firstFetch
		} else {
			m.addRequest(reqReg, r, 0, d, h)
		}
		sec.rat[r] = h
		m.names[h]++
	}
	return h
}

// stageRR implements the register-rename stage: one instruction per cycle,
// in fetch order. Sources that miss in the section's RAT and have no fork
// copy allocate a cache slot and send a renaming request backwards along the
// section order (§4.2, "Register renaming").
func (m *Machine) stageRR(c *Core) {
	if c.renameQ.Empty() {
		return
	}
	d := c.renameQ.Front()
	if int64(d.tFD) >= m.cycle {
		return
	}
	c.renameQ.Pop()
	sec, fp := d.Sec, &m.footprints[d.IP]

	// Sources take their slots in the footprint's order, one per register.
	// A source does not name its cell: the alias-table slot it was read from
	// names it until d has retired (see DynInst.prev).
	if !d.computedAtFetch || d.isMem() {
		for _, r := range fp.Uniq.Reads() {
			i := d.nsrcs
			d.srcs[i], d.srcRegs[i] = m.ratLookup(sec, r, d), r
			if fp.AddrRegs.Has(r) {
				d.addrSrcs |= 1 << i
			}
			d.nsrcs++
		}
	}
	for _, r := range fp.Uniq.Writes() {
		i := m.regSlot(d, r)
		d.prev[i], sec.rat[r] = sec.rat[r], d.wr[i]
		m.names[d.wr[i]]++
	}
	if d.pendingCopy != 0 {
		// Deferred non-volatile copies of a fork: link the created section to
		// the creator's current producers, in emu.NonVolatile's order. The
		// created section's slots are still empty — it cannot have renamed
		// anything yet, since its creation message takes longer than this
		// rename — so nothing is overwritten, and each copy is one more name
		// of the creator's cell.
		for _, r := range emu.NonVolatile {
			if d.pendingCopy&(1<<r) != 0 {
				h := m.ratLookup(sec, r, d)
				d.createdSec.rat[r] = h
				m.names[h]++
			}
		}
	}
	d.tRR = int32(m.cycle)
	sec.renamed++
	m.progress++
	// Fetching the section's last instruction cannot complete its renaming
	// (that instruction is still to be renamed), so this stage and arApply
	// are the only places a parked request's wait can end.
	if sec.fullyRenamed() {
		m.wakeRequests(&sec.waiting)
	}
	if d.isMem() {
		sec.memOps++
		sec.arQ.Push(d)
	}
	c.iq = append(c.iq, d)
}

// -------------------------------------------------------------- execute ----

// stageEW implements the out-of-order execute-write-back stage: one
// instruction per cycle, oldest ready first. Register-register instructions
// compute their results; memory instructions compute their access address;
// stalled control instructions resolve and unblock fetch. An instruction is
// ready when its (cached) wake cycle has passed: for memory instructions
// only the address-forming sources gate the stage; for everything else all
// sources do. An instruction blocked on an unproduced value leaves the queue
// for that value's waiter list (Machine.fill brings it back); the dense
// scheduler keeps it and polls again next cycle.
func (m *Machine) stageEW(c *Core) {
	best := -1
	for i := 0; i < len(c.iq); {
		d := c.iq[i]
		// Fast path: a cached wake costs one comparison.
		w := int64(d.ewWakeAt)
		if w == 0 {
			var on *cell
			if w, on = m.ewWake(d); on != nil && !m.cfg.Dense {
				swapRemove(&c.iq, i) // the swapped-in resident is examined next
				d.next, on.insts = on.insts, d
				continue
			}
		}
		if w <= m.cycle && (best < 0 || older(d, c.iq[best])) {
			best = i
		}
		i++
	}
	if best < 0 {
		return
	}
	d := c.iq[best]
	swapRemove(&c.iq, best)
	d.tEW = int32(m.cycle)
	m.progress++

	in := m.inst(d)
	if d.isMem() {
		m.listAR(c, d)
		fp, regs := &m.footprints[d.IP], m.srcRegs(d)
		// One data address: the load's, which is also the store's when there
		// are both (read-modify-write), else the store's.
		if fp.HasLoad {
			d.addr = fp.Load.Addr(regs)
		} else {
			d.addr = fp.Store.Addr(regs)
		}
		// The register half of push/pop, if not computed at fetch.
		if (in.Op == isa.PUSH || in.Op == isa.POP) && !m.regWritten(d, isa.RSP) {
			m.setReg(d, isa.RSP, stackHalf(in, regs))
		}
		return
	}
	m.listRetire(c, d)
	if d.computedAtFetch {
		return // results already produced in the fetch stage
	}
	switch in.Op {
	case isa.Jcc:
		// Only a branch the fetch stage could not compute gets here, and its
		// section has been stalled on it since: the redirect goes to the
		// section, which outlives the instruction.
		sec := d.Sec
		sec.resumeAt, sec.resumeIP = m.cycle, int64(d.IP)+1
		if in.Cond.Eval(isa.FlagsVal(m.srcRegs(d)[isa.Flags])) {
			sec.resumeIP = in.Target
		}
	default:
		m.exec(d, m.srcRegs(d), 0)
	}
}

// ------------------------------------------------------- address rename ----

// arHead returns the section's address-rename head if it may pass the stage
// this cycle (its execute-write-back, which computes the address, is
// strictly older), or nil.
func (m *Machine) arHead(s *Section) *DynInst {
	if s.arQ.Empty() {
		return nil
	}
	h := s.arQ.Front()
	if h.tEW == 0 || int64(h.tEW) >= m.cycle {
		return nil
	}
	return h
}

// listAR puts d's section on its hosting core's arReady list if d, which has
// just executed, is the section's address-rename head.
func (m *Machine) listAR(c *Core, d *DynInst) {
	if s := d.Sec; !s.arListed && !m.cfg.Dense && d == s.arQ.Front() {
		s.arListed = true
		s.arNext, c.arReady = c.arReady, s
	}
}

// pickAR returns the section stageAR would choose for c — the oldest hosted
// section whose head may pass this cycle — from the core's arReady list, and
// drops the sections whose head has not executed: the previous head was
// renamed and its successor will list the section again when it executes.
func (m *Machine) pickAR(c *Core) *Section {
	var best *Section
	for p := &c.arReady; *p != nil; {
		s := *p
		if s.arQ.Empty() || s.arQ.Front().tEW == 0 {
			*p, s.arNext, s.arListed = s.arNext, nil, false
			continue
		}
		if m.arHead(s) != nil && (best == nil || s.Pos < best.Pos) {
			best = s
		}
		p = &s.arNext
	}
	return best
}

// arApply renames the address of sec's AR head d on its hosting core.
func (m *Machine) arApply(c *Core, sec *Section, d *DynInst) {
	sec.arQ.Pop()

	fp := &m.footprints[d.IP]
	if fp.HasLoad {
		h := sec.maat.get(d.addr)
		if h == 0 {
			h = m.newCell()
			m.maatPut(&sec.maat, d.addr, h, false)
			m.names[h]++
			m.addRequest(reqMem, 0, d.addr, d, h)
		}
		d.memSrc = h
	}
	if fp.HasStore {
		// The entry's name of the word's previous cell passes to d, which lets
		// go of it when it retires (see DynInst.prev).
		d.mem = m.newCell()
		m.names[d.mem]++
		d.prevMem = m.maatPut(&sec.maat, d.addr, d.mem, true)
	}
	d.tAR = int32(m.cycle)
	sec.memRen++
	m.progress++
	if sec.memRenameDone() {
		m.wakeRequests(&sec.waiting)
	}
	c.lsq = append(c.lsq, d)
}

// stageAR implements the in-order address-rename stage: one memory
// instruction per cycle per core, in section order within each section
// (oldest section first across sections). Loads that miss in the MAAT send
// a memory renaming request backwards along the section order, applying the
// call-level shortcut for rsp-positive addresses (§4.2, "Memory renaming").
func (m *Machine) stageAR(c *Core) {
	var sec *Section
	var d *DynInst
	for _, s := range m.order.Items() {
		if s.Core != c.id {
			continue
		}
		h := m.arHead(s)
		if h == nil {
			continue
		}
		if sec == nil || s.Pos < sec.Pos {
			sec, d = s, h
		}
	}
	if d == nil {
		return
	}
	m.arApply(c, sec, d)
}

// -------------------------------------------------------- memory access ----

// stageMA implements the memory-access stage: one renamed memory instruction
// per cycle, oldest ready first. Loads deliver their value to the register
// results; stores make their value available to consumers. An instruction is
// ready when its (cached) wake cycle has passed: its loaded value (if any)
// and its non-address sources must be ready. Blocked residents park as in
// stageEW.
func (m *Machine) stageMA(c *Core) {
	best := -1
	for i := 0; i < len(c.lsq); {
		d := c.lsq[i]
		w := int64(d.maWakeAt)
		if w == 0 {
			var on *cell
			if w, on = m.maWake(d); on != nil && !m.cfg.Dense {
				swapRemove(&c.lsq, i)
				d.next, on.insts = on.insts, d
				continue
			}
		}
		if w <= m.cycle && (best < 0 || older(d, c.lsq[best])) {
			best = i
		}
		i++
	}
	if best < 0 {
		return
	}
	d := c.lsq[best]
	swapRemove(&c.lsq, best)
	var loaded uint64
	if d.memSrc != 0 {
		loaded = m.cells[d.memSrc].v
	}
	stored, ok := m.exec(d, m.srcRegs(d), loaded)
	if !ok {
		return
	}
	d.tMA = int32(m.cycle)
	if d.mem != 0 {
		m.fill(&m.cells[d.mem], stored, m.cycle)
	}
	m.listRetire(c, d)
	m.progress++
}

// --------------------------------------------------------------- retire ----

// retireHead returns the section's in-order retirement head if it may retire
// this cycle (its completing event is strictly older), or nil.
func (m *Machine) retireHead(s *Section) *DynInst {
	h := s.head
	if h == nil || !h.done() {
		return nil
	}
	// A stage boundary: the completing event must be strictly older than
	// this cycle.
	if h.isMem() {
		if int64(h.tMA) >= m.cycle {
			return nil
		}
	} else if int64(h.tEW) >= m.cycle {
		return nil
	}
	return h
}

// listRetire puts d's section on its hosting core's retireReady list if d,
// which has just completed, is the section's retire head. A head that
// completed earlier, out of order, needs no listing: the section was listed
// for its predecessor and stays listed while its head is complete.
func (m *Machine) listRetire(c *Core, d *DynInst) {
	if s := d.Sec; !s.retireListed && !m.cfg.Dense && d == s.head {
		s.retireListed = true
		s.retireNext, c.retireReady = c.retireReady, s
	}
}

// unlist takes a section that has just dumped off its core's ready lists.
// A pick drops a listed section only when it next finds the head gone, and
// the shell is about to be reused.
func unlist(c *Core, s *Section) {
	if s.retireListed {
		p := &c.retireReady
		for *p != s {
			p = &(*p).retireNext
		}
		*p = s.retireNext
	}
	if s.arListed {
		p := &c.arReady
		for *p != s {
			p = &(*p).arNext
		}
		*p = s.arNext
	}
}

// pickRetire returns the section stageRetire would choose for c — the oldest
// hosted section whose head may retire this cycle — from the core's
// retireReady list, and drops the sections whose head is not complete.
func (m *Machine) pickRetire(c *Core) *Section {
	var best *Section
	for p := &c.retireReady; *p != nil; {
		s := *p
		if s.head == nil || !s.head.done() {
			*p, s.retireNext, s.retireListed = s.retireNext, nil, false
			continue
		}
		if m.retireHead(s) != nil && (best == nil || s.Pos < best.Pos) {
			best = s
		}
		p = &s.retireNext
	}
	return best
}

// retireApply retires sec's head d, and with that d leaves the machine: its
// row goes to the sink, its place in the aggregates is taken, and the object
// is recycled. Nothing may refer to d after this — see DynInst.
func (m *Machine) retireApply(sec *Section, d *DynInst) {
	if sec.head = d.secNext; sec.head == nil {
		sec.tail = nil
	}
	sec.retired++
	sec.lastRetire, m.retireDone = m.cycle, m.cycle
	m.inFlight--
	m.progress++
	if m.sink != nil {
		m.sink(InstTiming{
			Section: sec.ID, SecPos: sec.Pos, Idx: int(d.Idx), IP: int64(d.IP), In: m.inst(d), Level: d.Level,
			FD: int64(d.tFD), RR: int64(d.tRR), EW: int64(d.tEW), AR: int64(d.tAR), MA: int64(d.tMA), RET: m.cycle,
		})
	}
	m.recycle(d)
}

// stageRetire implements the in-order (per section) retirement stage: one
// instruction per cycle per core, oldest hosted section first. Retirement is
// parallel across cores/sections (§4.2, "Parallelizing retirement"); the
// oldest section's state is dumped to the DMH by Machine.dumpOldest.
func (m *Machine) stageRetire(c *Core) {
	var sec *Section
	var d *DynInst
	for _, s := range m.order.Items() {
		if s.Core != c.id {
			continue
		}
		h := m.retireHead(s)
		if h == nil {
			continue
		}
		if sec == nil || s.Pos < sec.Pos {
			sec, d = s, h
		}
	}
	if d == nil {
		return
	}
	m.retireApply(sec, d)
}
