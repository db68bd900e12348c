package noc

import "testing"

func TestCrossbarLatency(t *testing.T) {
	c := NewCrossbar(8, 1)
	if c.Cores() != 8 {
		t.Errorf("cores = %d", c.Cores())
	}
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if got := c.Latency(src, dst); got != 1 {
				t.Errorf("Latency(%d,%d) = %d, want 1", src, dst, got)
			}
		}
	}
	c3 := NewCrossbar(4, 3)
	if got := c3.Latency(0, 2); got != 3 {
		t.Errorf("hop=3 crossbar latency = %d", got)
	}
	// hop < 1 clamps to 1.
	if got := NewCrossbar(4, 0).Latency(1, 2); got != 1 {
		t.Errorf("clamped crossbar latency = %d", got)
	}
}

func TestLatencySymmetry(t *testing.T) {
	nets := []Network{
		NewCrossbar(8, 2),
		NewRing(8, 1),
		NewRing(7, 3),
		NewMesh(4, 2, 1),
		NewMesh(3, 3, 2),
	}
	for _, n := range nets {
		for src := 0; src < n.Cores(); src++ {
			for dst := 0; dst < n.Cores(); dst++ {
				a, b := n.Latency(src, dst), n.Latency(dst, src)
				if a != b {
					t.Errorf("%s: Latency(%d,%d)=%d != Latency(%d,%d)=%d",
						n.Name(), src, dst, a, dst, src, b)
				}
				if a < 1 {
					t.Errorf("%s: Latency(%d,%d)=%d < 1", n.Name(), src, dst, a)
				}
			}
		}
	}
}

// TestRingShortestArc: the ring must route along the shorter direction.
func TestRingShortestArc(t *testing.T) {
	r := NewRing(8, 1)
	cases := []struct {
		src, dst int
		want     int64
	}{
		{0, 1, 1},
		{0, 4, 4}, // both arcs equal
		{0, 5, 3}, // wrap-around is shorter
		{0, 7, 1},
		{6, 1, 3},
		{2, 2, 1}, // local forwarding costs at least 1
	}
	for _, c := range cases {
		if got := r.Latency(c.src, c.dst); got != c.want {
			t.Errorf("ring Latency(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
	// Per-hop scaling.
	r3 := NewRing(8, 3)
	if got := r3.Latency(0, 5); got != 9 {
		t.Errorf("ring hop=3 Latency(0,5) = %d, want 9", got)
	}
	one := NewRing(1, 1)
	if got := one.Latency(0, 0); got != 1 {
		t.Errorf("1-core ring latency = %d", got)
	}
}

func TestMeshManhattan(t *testing.T) {
	m := NewMesh(4, 2, 1) // cores 0..3 top row, 4..7 bottom row
	cases := []struct {
		src, dst int
		want     int64
	}{
		{0, 3, 3}, // same row
		{0, 4, 1}, // same column
		{0, 7, 4}, // corner to corner: 3 + 1
		{1, 6, 2}, // (1,0) to (2,1)
		{5, 5, 1}, // local
	}
	for _, c := range cases {
		if got := m.Latency(c.src, c.dst); got != c.want {
			t.Errorf("mesh Latency(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
	if m.Cores() != 8 {
		t.Errorf("4x2 mesh cores = %d", m.Cores())
	}
}

// TestQueueOrdering: deliveries come out in (time, send order), ties broken
// by the send sequence, and nothing is delivered early.
func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	net := NewRing(4, 1)
	q.Send(net, 0, 2, 0, "far")    // deliver at 2
	q.Send(net, 0, 1, 0, "near-a") // deliver at 1
	q.Send(net, 0, 1, 0, "near-b") // deliver at 1, sent after near-a
	q.Send(net, 3, 0, 0, "wrap")   // deliver at 1 (the short arc), sent last

	if got := q.Deliver(0); len(got) != 0 {
		t.Fatalf("delivered %d messages at t=0", len(got))
	}
	got := q.Deliver(1)
	want := []string{"near-a", "near-b", "wrap"}
	if len(got) != len(want) {
		t.Fatalf("t=1: delivered %d messages, want %d", len(got), len(want))
	}
	for i, m := range got {
		if m.Payload.(string) != want[i] {
			t.Errorf("t=1 delivery %d = %q, want %q", i, m.Payload, want[i])
		}
	}
	if q.Len() != 1 {
		t.Errorf("queue length = %d, want 1", q.Len())
	}
	rest := q.Deliver(10)
	if len(rest) != 1 || rest[0].Payload.(string) != "far" {
		t.Errorf("t=10 delivery = %v", rest)
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d", q.Len())
	}
}
