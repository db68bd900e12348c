package machine

import (
	"testing"

	"repro/internal/isa"
)

// TestProcessRequestsCompaction drives one processRequests pass over a
// hand-built machine through every way a request leaves or stays on the
// list: in flight (stays), waiting at an unrenamed target (parks on the
// section), waiting for an unproduced value (parks on its cell), answered
// (released to the pool, scrubbed) and woken in the middle of the pass by
// that answer (appended behind the compaction cursor, must survive it). The
// per-section request counts dumpOldest relies on follow every move, and an
// answer lets go of the cell it filled. The dense scheduler runs the same
// steps and parks nothing.
//
// Survivors keep their relative order, but nothing depends on it: no
// contention is modelled (Network.Latency is a pure function and a section
// answers any number of requests per cycle), so a step never reads what
// another request's step wrote in the same cycle — TestThreeWayOracle, where
// parked requests rejoin the list in wake order and dense keeps creation
// order, is the proof.
func TestProcessRequestsCompaction(t *testing.T) {
	for _, dense := range []bool{false, true} {
		m := &Machine{cfg: Config{Cores: 1, Dense: dense}.withDefaults(), cycle: 10}
		m.cores = []*Core{{}}
		// Three sections in order: a is fully renamed, b is still fetching.
		a := &Section{fetchDone: true}
		b := &Section{Pos: 1}
		c := &Section{Pos: 2}
		for _, s := range []*Section{a, b, c} {
			m.order.Push(s)
		}
		m.resetCells()
		unproduced, produced := m.newCell(), m.newCell()
		m.cells[produced] = cell{v: 42, at: 5}
		a.rat[isa.RBX], a.rat[isa.RCX] = unproduced, produced
		m.names[unproduced], m.names[produced] = 1, 1

		mk := func(from, target *Section, reg isa.Reg, availableAt int64) *request {
			r := m.newRequest()
			r.kind, r.reg = reqReg, reg
			r.reqSec, r.from, r.target = c, from, target
			// The slot is named by the request and by the requester's alias
			// table, which outlives the answer.
			r.sl = m.newCell()
			m.names[r.sl] = 2
			r.availableAt = availableAt
			from.nreqs++
			if target != nil {
				target.nreqs++
			}
			return r
		}
		inFlight := mk(c, b, isa.RAX, 100)
		atUnrenamed := mk(c, b, isa.RAX, 0)
		atUnproduced := mk(b, a, isa.RBX, 0)
		answered := mk(b, a, isa.RCX, 0)
		// Parked on the cell the answer fills; in flight once woken, so its
		// step leaves it on the list.
		woken := mk(c, b, isa.RAX, 100)
		m.reqs = []*request{inFlight, atUnrenamed, atUnproduced, answered}
		slID := answered.sl
		sl := &m.cells[slID]
		if dense {
			m.reqs = append(m.reqs, woken)
		} else {
			sl.reqs = woken
		}

		m.processRequests()

		want := []*request{inFlight, woken}
		if dense {
			want = []*request{inFlight, atUnrenamed, atUnproduced, woken}
		}
		if len(m.reqs) != len(want) {
			t.Fatalf("dense=%v: %d listed requests, want %d", dense, len(m.reqs), len(want))
		}
		for i := range want {
			if m.reqs[i] != want[i] {
				t.Errorf("dense=%v: list entry %d is not the expected request", dense, i)
			}
		}
		if !dense {
			if b.waiting != atUnrenamed || atUnrenamed.next != nil {
				t.Error("request at an unrenamed target is not parked on the section")
			}
			if m.cells[unproduced].reqs != atUnproduced || atUnproduced.next != nil {
				t.Error("request for an unproduced value is not parked on its cell")
			}
		}
		if sl.v != 42 || sl.at != m.cycle+m.cfg.Net.Latency(0, 0) || sl.reqs != nil {
			t.Errorf("dense=%v: answer cell = %+v", dense, *sl)
		}
		if m.names[slID] != 1 {
			t.Errorf("dense=%v: the answered slot is named %d times, want 1 (the alias table's)", dense, m.names[slID])
		}
		if m.respMsgs != 1 || len(m.reqFree) != 1 || *m.reqFree[0] != (request{}) {
			t.Errorf("dense=%v: answered request not released scrubbed (%d responses, %d pooled)", dense, m.respMsgs, len(m.reqFree))
		}
		if a.nreqs != 1 || b.nreqs != 4 || c.nreqs != 3 {
			t.Errorf("dense=%v: request counts a=%d b=%d c=%d, want 1 4 3", dense, a.nreqs, b.nreqs, c.nreqs)
		}

		// b renames its last instruction: its waiter comes back, misses (b
		// has no producer for rax) and moves on with b as its search point.
		b.fetchDone = true
		m.wakeRequests(&b.waiting)
		m.processRequests()
		if atUnrenamed.from != b || atUnrenamed.target != nil || b.waiting != nil {
			t.Errorf("dense=%v: woken request did not search its target", dense)
		}
		if b.nreqs != 4 || c.nreqs != 2 {
			t.Errorf("dense=%v: after the miss b=%d c=%d, want 4 2", dense, b.nreqs, c.nreqs)
		}
		// The value is produced: its waiter comes back and exports it the
		// cycle after.
		export := &m.cells[atUnproduced.sl]
		m.fill(&m.cells[unproduced], 7, m.cycle)
		m.processRequests()
		if export.at != 0 {
			t.Errorf("dense=%v: value exported in the cycle it was produced", dense)
		}
		m.cycle++
		m.processRequests()
		if m.respMsgs != 2 || export.v != 7 || export.at == 0 {
			t.Errorf("dense=%v: produced value not exported (%d responses, cell %+v)", dense, m.respMsgs, *export)
		}
		// The pool hands released requests out again before allocating.
		if n := len(m.reqAll); m.newRequest() == nil || len(m.reqAll) != n {
			t.Errorf("dense=%v: newRequest allocated with %d requests pooled", dense, len(m.reqFree))
		}
	}
}
