// Package noc models the Network-on-Chip connecting the cores (the paper's
// §4.2 assumes the cores are "connected by a Network-on-Chip" without fixing
// a topology). It provides latency models for an ideal crossbar, a
// bidirectional ring and a 2-D mesh, used by the machine simulator to charge
// message travel times, plus a deterministic delivery queue for standalone
// use and tests.
package noc

import (
	"container/heap"
	"fmt"
)

// Network computes message latencies between cores.
type Network interface {
	// Cores returns the number of endpoints.
	Cores() int
	// Latency returns the cycles a message needs from src to dst.
	// Latency(i, i) is the local forwarding cost (at least 1).
	Latency(src, dst int) int64
	// Name identifies the topology for reports.
	Name() string
}

// Crossbar is an ideal full crossbar: every pair of distinct cores is one
// hop apart. This is the calibration the paper's Fig. 10 uses ("counting 3
// cycles to reach the producer and return": 1 hop out, 1 cycle at the
// producer, 1 hop back).
type Crossbar struct {
	n   int
	hop int64
}

// NewCrossbar returns a crossbar over n cores with the given hop latency.
func NewCrossbar(n int, hop int64) *Crossbar {
	if hop < 1 {
		hop = 1
	}
	return &Crossbar{n: n, hop: hop}
}

// Cores implements Network.
func (c *Crossbar) Cores() int { return c.n }

// Latency implements Network.
func (c *Crossbar) Latency(src, dst int) int64 { return c.hop }

// Name implements Network.
func (c *Crossbar) Name() string { return fmt.Sprintf("crossbar(hop=%d)", c.hop) }

// Ring is a bidirectional ring: latency is the shorter arc distance times
// the per-hop latency.
type Ring struct {
	n   int
	hop int64
}

// NewRing returns a ring over n cores with the given per-hop latency.
func NewRing(n int, hop int64) *Ring {
	if hop < 1 {
		hop = 1
	}
	return &Ring{n: n, hop: hop}
}

// Cores implements Network.
func (r *Ring) Cores() int { return r.n }

// Latency implements Network.
func (r *Ring) Latency(src, dst int) int64 {
	if r.n <= 1 {
		return r.hop
	}
	d := src - dst
	if d < 0 {
		d = -d
	}
	if alt := r.n - d; alt < d {
		d = alt
	}
	if d == 0 {
		d = 1
	}
	return int64(d) * r.hop
}

// Name implements Network.
func (r *Ring) Name() string { return fmt.Sprintf("ring(%d,hop=%d)", r.n, r.hop) }

// Mesh is a 2-D mesh with X-Y routing: latency is the Manhattan distance
// times the per-hop latency. Cores are numbered row-major over width×height.
type Mesh struct {
	w, h int
	hop  int64
}

// NewMesh returns a w×h mesh with the given per-hop latency.
func NewMesh(w, h int, hop int64) *Mesh {
	if hop < 1 {
		hop = 1
	}
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return &Mesh{w: w, h: h, hop: hop}
}

// Cores implements Network.
func (m *Mesh) Cores() int { return m.w * m.h }

// Latency implements Network.
func (m *Mesh) Latency(src, dst int) int64 {
	sx, sy := src%m.w, src/m.w
	dx, dy := dst%m.w, dst/m.w
	d := abs(sx-dx) + abs(sy-dy)
	if d == 0 {
		d = 1
	}
	return int64(d) * m.hop
}

// Name implements Network.
func (m *Mesh) Name() string { return fmt.Sprintf("mesh(%dx%d,hop=%d)", m.w, m.h, m.hop) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Message is one in-flight payload for the delivery queue.
type Message struct {
	Src, Dst  int
	DeliverAt int64
	Seq       int64 // FIFO tiebreak for equal delivery times
	Payload   any
}

// Queue is a deterministic time-ordered delivery queue.
type Queue struct {
	h   msgHeap
	seq int64
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Send enqueues a message from src to dst at time now; it becomes available
// at now + net.Latency(src, dst).
func (q *Queue) Send(net Network, src, dst int, now int64, payload any) {
	m := Message{Src: src, Dst: dst, DeliverAt: now + net.Latency(src, dst), Seq: q.seq, Payload: payload}
	q.seq++
	heap.Push(&q.h, m)
}

// Deliver pops every message whose delivery time is <= now, in
// (time, send order).
func (q *Queue) Deliver(now int64) []Message {
	var out []Message
	for q.h.Len() > 0 && q.h[0].DeliverAt <= now {
		out = append(out, heap.Pop(&q.h).(Message))
	}
	return out
}

// Len returns the number of undelivered messages.
func (q *Queue) Len() int { return q.h.Len() }

type msgHeap []Message

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].DeliverAt != h[j].DeliverAt {
		return h[i].DeliverAt < h[j].DeliverAt
	}
	return h[i].Seq < h[j].Seq
}
func (h msgHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)   { *h = append(*h, x.(Message)) }
func (h *msgHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}

// Info is the catalog metadata of one supported topology: what a serving
// layer or CLI needs to enumerate the §4.2 design space without
// constructing networks.
type Info struct {
	// Name is the topology identifier constructors and sweep specs accept.
	Name string `json:"name"`
	// Description summarises the latency model.
	Description string `json:"description"`
}

// topologies is the topology table, the single source of truth for topology
// names: each one's catalog entry and its constructor over a core count with
// unit hop latency, in presentation order. Catalog and New read it;
// internal/sweep derives its axis vocabulary from Catalog and the job server
// serves Catalog at /v1/topologies.
var topologies = []struct {
	Info
	build func(cores int) Network
}{
	{Info{"crossbar", "ideal full crossbar: every pair of distinct cores is one hop apart (the paper's Fig. 10 calibration)"},
		func(cores int) Network { return NewCrossbar(cores, 1) }},
	{Info{"ring", "bidirectional ring: latency is the shorter arc distance times the hop cost"},
		func(cores int) Network { return NewRing(cores, 1) }},
	{Info{"mesh", "2-D mesh with X-Y routing: latency is the Manhattan distance times the hop cost (cores factorised into the most square w×h grid)"},
		func(cores int) Network {
			w := 1 // the largest divisor of cores not above its square root
			for d := 1; d*d <= cores; d++ {
				if cores%d == 0 {
					w = d
				}
			}
			return NewMesh(w, cores/w, 1)
		}},
}

// Catalog lists the supported topologies in presentation order.
func Catalog() []Info {
	out := make([]Info, len(topologies))
	for i, t := range topologies {
		out[i] = t.Info
	}
	return out
}

// New builds the named topology over cores with unit hop latency; ok is
// false for a name the table does not hold.
func New(name string, cores int) (net Network, ok bool) {
	for _, t := range topologies {
		if t.Name == name {
			return t.build(cores), true
		}
	}
	return nil, false
}
