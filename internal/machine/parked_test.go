package machine_test

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// TestWaitingWorkIsParked: on a paper-scale point the scheduler's work follows
// the run's events, not what is in flight. quickSort n=512 on 64 cores keeps
// hundreds of instructions per core waiting for values nobody has produced
// yet; the idle-skip scheduler hangs each on the cell it waits for and visits
// its core again only when that cell fills. It makes 4.2 core visits per
// event here (instructions plus requests answered). With the waiting
// instructions left in their queues and polled instead, every one of them
// keeps its core armed cycle after cycle: 9.0 visits per event, and about a
// hundred times the host time. The bound is 6. A count, unlike a wall-clock ratio,
// does not depend on the host.
func TestWaitingWorkIsParked(t *testing.T) {
	k, err := pbbs.Find("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	n := k.ClampN(512)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(n, 1)
	want, err := k.Ref(n, in)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(prog, machine.DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Inject(prog, m.DMH(), in); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.RAX != want {
		t.Fatalf("checksum %d, reference %d", r.RAX, want)
	}
	v, events := machine.Visits(m), r.Instructions+r.ResponseMessages
	perEvent := float64(v) / float64(events)
	t.Logf("quickSort n=%d on 64 cores: %d cycles, %d instructions, %d requests answered, %d core visits (%.2f per event)",
		n, r.Cycles, r.Instructions, r.ResponseMessages, v, perEvent)
	if perEvent > 6 {
		t.Errorf("%d core visits for %d events, %.2f per event (bound 6): waiting work is polled, not parked", v, events, perEvent)
	}
}
