package machine

import (
	"repro/internal/isa"
)

// reqKind discriminates register and memory renaming requests.
type reqKind uint8

// Request kinds: register renaming (RRRU/RERU traffic) and memory renaming
// (ARRU/MERU traffic).
const (
	reqReg reqKind = iota
	reqMem
)

// request is one in-flight renaming request travelling backwards along the
// section order (§4.2). It carries the slot to fill at the requester.
// Requests are pooled per machine (newRequest/releaseRequest): a finished
// request is scrubbed and reused by the next one.
//
// Protocol: the request searches the section immediately preceding `from`
// (initially the requesting section) in the *current* total order. A
// searched section must be fully renamed (register requests) or fully
// address-renamed (memory requests) before it can answer — this is the
// paper's "the renaming request is enqueued in the ARQ to avoid bypassing
// renamings ... not yet done" discipline, and it also guarantees the
// predecessor can no longer fork, so the gap between it and `from` is
// stable. On a miss the request moves on (`from` advances backwards); when
// no live predecessor remains, the committed architectural state (registers)
// or the DMH (memory) answers — the paper's "the request travels back to the
// loader".
//
// A request in Machine.reqs is stepped every cycle. Under the idle-skip
// scheduler one that waits for an event — its target's renamings, or the
// value it is to export — is parked instead: it leaves the list for the
// waiter list of the section or cell concerned and comes back when that
// renames its last instruction, forks, or is filled (wakeRequests). No
// contention is modelled — Network.Latency is a pure function and a section
// answers any number of requests in a cycle — so a step never depends on
// another request's, and the order woken requests rejoin the list in is
// immaterial.
type request struct {
	kind     reqKind
	reg      isa.Reg
	shortcut bool   // rsp-based positive-offset address (§4.2 statement ii)
	sl       cellID // the requester's cache cell, filled by the answer
	addr     uint64
	level    int32 // consumer call level, for the call-level shortcut
	// reqCore is the requester's core, which is fixed once the section is
	// hosted: a step and an answer read it here rather than from the
	// requester's header, a cache line the request is not otherwise at.
	reqCore int32

	reqSec *Section

	from        *Section // last searched section (or the requester)
	target      *Section // section the request is travelling to / waiting at
	availableAt int64    // cycle the request is available at its location

	next *request // link on the waiter list the request is parked on
}

// addRequest creates a renaming request for instruction d.
func (m *Machine) addRequest(kind reqKind, reg isa.Reg, addr uint64, d *DynInst, sl cellID) {
	r := m.newRequest()
	r.kind = kind
	r.reg = reg
	r.addr = addr
	r.level = d.Level
	r.reqCore = int32(d.Sec.Core)
	r.reqSec = d.Sec
	r.sl = sl
	m.names[sl]++
	r.from = d.Sec
	d.Sec.nreqs++
	r.availableAt = m.cycle
	if kind == reqMem {
		r.shortcut = rspPositive(&m.footprints[d.IP])
		m.memReqs++
	} else {
		m.regReqs++
	}
	m.reqs = append(m.reqs, r)
	m.progress++
}

// rspPositive reports whether the instruction's load address is rsp-based
// with a non-negative offset — the paper's condition for the call-level
// shortcut ("stack pointer based variables with a positive offset (e.g.
// 0(rsp)) benefit from a shortcut eliminating instructions belonging to a
// call level deeper than the consumer"). A pop's load is 0(%rsp).
func rspPositive(fp *isa.Footprint) bool {
	o := &fp.Load
	return fp.HasLoad && o.Base == isa.RSP && o.Index == isa.NoReg && o.Imm >= 0
}

// searchTarget returns the next section the request must search, or nil when
// the committed state answers (every older live section has been searched or
// skipped). Deeper-level sections are skipped for shortcut requests.
func (m *Machine) searchTarget(r *request) *Section {
	s := r.from.prev
	for s != nil && r.kind == reqMem && r.shortcut && m.cfg.Shortcut && s.BaseLevel > r.level {
		s = s.prev
	}
	return s
}

// processRequests advances every listed renaming request by at most one
// protocol step per cycle and compacts the ones that left — answered, or
// parked — out of the list in place. A step can fill a cell and so wake
// requests onto the end of the list; they are stepped in the same pass
// (and only wait: the value they were woken for is usable next cycle).
func (m *Machine) processRequests() {
	w := 0
	for i := 0; i < len(m.reqs); i++ {
		r := m.reqs[i]
		if m.stepRequest(r) {
			m.reqs[w] = r
			w++
		}
	}
	clear(m.reqs[w:])
	m.reqs = m.reqs[:w]
}

// park sets r aside on a waiter list until wakeRequests returns it, and
// reports whether r stays in Machine.reqs — which it does under the dense
// scheduler, whose poll of every request every cycle is the reference for
// the wakes this one must deliver.
func (m *Machine) park(r *request, on **request) bool {
	if m.cfg.Dense {
		return true
	}
	r.next, *on = *on, r
	return false
}

// wakeRequests returns the requests parked on a list to Machine.reqs. Every
// caller runs before or inside the cycle's processRequests, so a woken
// request is stepped in the cycle of the event it waited for, as when polled.
func (m *Machine) wakeRequests(on **request) {
	for r := *on; r != nil; {
		next := r.next
		r.next = nil
		m.reqs = append(m.reqs, r)
		r = next
	}
	*on = nil
}

// stepRequest advances r by one protocol step and reports whether it stays
// in Machine.reqs (false: answered and released, or parked).
func (m *Machine) stepRequest(r *request) bool {
	if m.cycle < r.availableAt {
		return true
	}
	want := m.searchTarget(r)
	if want == nil {
		m.answerFromCommitted(r)
		return false
	}
	if r.target != want {
		// Travel to the (possibly re-evaluated) predecessor's core. The
		// re-evaluation handles sections inserted between the last search
		// point and the requester by later forks.
		if r.target != nil {
			r.target.nreqs--
		}
		r.target = want
		want.nreqs++
		from := int(r.reqCore)
		if r.from != r.reqSec && r.from.Core >= 0 {
			from = r.from.Core
		}
		to := want.Core
		if to < 0 {
			to = from
		}
		r.availableAt = m.cycle + m.cfg.Net.Latency(from, to)
		m.reqHops++
		return true
	}
	// At the target: it must be completely renamed before it can answer,
	// otherwise the request waits (the export instruction is not yet
	// insertable).
	var p cellID
	if r.kind == reqReg {
		if !want.fullyRenamed() {
			return m.park(r, &want.waiting)
		}
		p = want.rat[r.reg]
	} else {
		if !want.memRenameDone() {
			return m.park(r, &want.waiting)
		}
		p = want.maat.get(r.addr)
	}
	if p == 0 {
		// A miss: the target becomes the last searched section.
		r.from.nreqs--
		r.from = want
		r.target = nil
		m.progress++
		return true
	}
	return m.deliver(r, p)
}

// deliver sends the producer's value back to the requester once it is
// available (the paper's export instruction waits in the IQ/LSQ for the
// requested value, then reads it and sends it through the RERU/MERU), and
// reports whether r stays in Machine.reqs.
func (m *Machine) deliver(r *request, p cellID) bool {
	c := &m.cells[p]
	at := c.readyAt()
	if at < 0 {
		return m.park(r, &c.reqs) // value not produced yet; the export waits
	}
	if at >= m.cycle {
		return true // produced this cycle or arriving later: readable after
	}
	back := m.cfg.Net.Latency(r.target.Core, int(r.reqCore))
	m.fill(&m.cells[r.sl], c.v, m.cycle+back)
	m.answered(r)
	return false
}

// answered accounts for r's response message and retires the request, which
// lets go of the cell it filled.
func (m *Machine) answered(r *request) {
	m.respMsgs++
	m.progress++
	r.from.nreqs--
	if r.target != nil {
		r.target.nreqs--
	}
	m.unname(r.sl)
	m.releaseRequest(r)
}

// answerFromCommitted serves a request from the committed architectural
// state: the DMH for memory, the architectural register file for registers.
// This is correct because a nil search target means every older section has
// dumped (in order), so the committed state reflects exactly the program
// point before the requester's earliest live predecessor.
func (m *Machine) answerFromCommitted(r *request) {
	var v uint64
	if r.kind == reqReg {
		v = m.arch[r.reg]
	} else {
		v = m.dmh.ReadU64(r.addr)
	}
	// One cycle to reach the DMH/loader, one processing cycle, one cycle
	// back: the value is usable three cycles after the request left
	// (Fig. 10's "counting 3 cycles to reach the producer and return").
	m.fill(&m.cells[r.sl], v, m.cycle+2)
	m.dmhAnswers++
	m.answered(r)
}
