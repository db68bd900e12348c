package machine

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// TestOrderMaintenance drives the section order the way forks and dumps do —
// a section linked in after any undumped one, the oldest unlinked — against a
// plain slice, with and without a relabel at every fork. A fork lands where
// the previous one did, after the same creator or after its new section, but
// for one in 64 that picks a creator at random, so the gap at one place
// halves until it runs out and the order is relabelled. After every step the list holds the slice's sections in the
// slice's order, every link is matched by the one back, the head has no
// predecessor, the labels increase strictly, and every section's counted
// position is the number dumped plus its index in the slice.
func TestOrderMaintenance(t *testing.T) {
	for _, all := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(38, 1))
		m := &Machine{relabelAll: all}
		id := int64(0)
		first := &Section{}
		m.head, m.tail = first, first
		ref := []*Section{first}
		creator, created := first, first
		relabels := 0
		for step := 0; step < 10_000; step++ {
			if len(ref) > 1 && (len(ref) > 100 || rng.IntN(3) == 0) {
				popped := ref[0]
				m.popOldest()
				ref = ref[1:]
				if creator == popped {
					creator = m.head
				}
				if created == popped {
					created = m.head
				}
			} else {
				switch k := rng.IntN(64); {
				case k == 0:
					creator = ref[rng.IntN(len(ref))]
				case k%2 == 0:
					creator = created
				}
				labels := make([]uint64, len(ref))
				for i, s := range ref {
					labels[i] = s.ord
				}
				id++
				created = &Section{ID: id}
				m.insertAfter(creator, created)
				at := 0
				for ref[at] != creator {
					at++
				}
				for i, s := range ref {
					if s.ord != labels[i] {
						relabels++
						break
					}
				}
				ref = append(ref[:at+1], append([]*Section{created}, ref[at+1:]...)...)
			}
			if err := m.orderError(); err != nil {
				t.Fatalf("relabelAll=%v step %d: %v", all, step, err)
			}
			if m.head.prev != nil {
				t.Fatalf("relabelAll=%v step %d: the head has a predecessor", all, step)
			}
			i := 0
			for s := m.head; s != nil; s, i = s.next, i+1 {
				if i >= len(ref) || s != ref[i] {
					t.Fatalf("relabelAll=%v step %d: the list differs from the reference at %d", all, step, i)
				}
				if got := m.position(s); got != m.dumped+i {
					t.Fatalf("relabelAll=%v step %d: section %d counted at %d, want %d", all, step, s.ID, got, m.dumped+i)
				}
			}
			if i != len(ref) {
				t.Fatalf("relabelAll=%v step %d: %d sections listed, want %d", all, step, i, len(ref))
			}
		}
		t.Logf("relabelAll=%v: %d forks, %d dumps, %d relabels", all, id, m.dumped, relabels)
		if !all && (relabels == 0 || relabels > int(id)/10) {
			t.Errorf("%d relabels in %d forks, want some and at most one in ten", relabels, id)
		}
	}
}

// TestPoisonedForkChecksTheOrder: a poisoned run checks the section order at
// every fork, so a broken link or label faults the run there. Each case
// breaks a well-formed order of three sections before a fork after the
// oldest, which relabels nothing that could hide the break.
func TestPoisonedForkChecksTheOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(m *Machine, a, b, c *Section)
		want   string
	}{
		{"intact", func(*Machine, *Section, *Section, *Section) {}, ""},
		{"label", func(_ *Machine, _, b, c *Section) { c.ord = b.ord }, "broken at section 3"},
		{"link", func(_ *Machine, a, _, c *Section) { c.prev = a }, "broken at section 3"},
		{"tail", func(m *Machine, _, b, _ *Section) { m.tail = b }, "does not end at its tail"},
	} {
		m := &Machine{poison: true}
		a, b, c := &Section{ID: 1}, &Section{ID: 2}, &Section{ID: 3}
		m.head, m.tail = a, a
		m.insertAfter(a, b)
		m.insertAfter(b, c)
		if m.err != nil {
			t.Fatalf("%s: a well-formed order faulted: %v", tc.name, m.err)
		}
		tc.mangle(m, a, b, c)
		m.insertAfter(a, &Section{ID: 4})
		switch {
		case tc.want == "" && m.err != nil:
			t.Errorf("%s: %v", tc.name, m.err)
		case tc.want != "" && (m.err == nil || !strings.Contains(m.err.Error(), tc.want)):
			t.Errorf("%s: fault %v, want one containing %q", tc.name, m.err, tc.want)
		}
	}
}
