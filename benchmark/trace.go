package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The layers a span can be charged to: one per package the benchmark calls
// into, in pipeline order. "bench" is the benchmark's own glue (a track's
// root span, waiting, verification).
var layers = []string{
	"minic", "gofront", "pbbs", "progs", "emu", "trace", "ilp", "machine",
	"backend", "sweep", "server", "fabric", "bench",
}

// span is one timed call the benchmark made into a layer. Parent is the
// span that caused it (-1 for a track's root); spans of one grid point or
// request share Point. Track separates goroutines so that a viewer draws
// concurrent spans on separate rows.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Point  string `json:"point,omitempty"`
	Track  int    `json:"track"`
	Start  int64  `json:"startNs"` // since the tracer was created
	Dur    int64  `json:"durNs"`
	// Probe marks a span of a layer probe: an extra call the traced run makes
	// to time one layer alone. Probes are in the trace file but not in the
	// self-time table, which describes the workload.
	Probe bool `json:"probe,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run calls the same code at no cost.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	probing bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setProbing says whether spans begun from now on are a probe's.
func (t *tracer) setProbing(on bool) {
	if t != nil {
		t.mu.Lock()
		t.probing = on
		t.mu.Unlock()
	}
}

// begin opens a span and returns its ID for end and for children's parent.
func (t *tracer) begin(parent, track int, layer, name, point string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name, Point: point,
		Track: track, Start: now, Dur: -1, Probe: t.probing,
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].Dur = now - t.spans[id].Start
	t.mu.Unlock()
}

// add records a span whose duration was measured elsewhere (a worker
// reported it, or a replay of the same work stood in for code the benchmark
// cannot reach into). A zero start puts it where its parent starts.
func (t *tracer) add(parent, track int, layer, name, point string, start time.Time, dur time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	var at int64
	switch {
	case !start.IsZero():
		at = start.Sub(t.t0).Nanoseconds()
	case parent >= 0:
		at = t.spans[parent].Start
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name, Point: point,
		Track: track, Start: at, Dur: dur.Nanoseconds(), Probe: t.probing,
	})
	return id
}

// timed runs f inside a span.
func (t *tracer) timed(parent, track int, layer, name, point string, f func()) time.Duration {
	id := t.begin(parent, track, layer, name, point)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns each span's duration minus the part its direct children
// cover, never below zero. Children of one parent on one track run one after
// another, so the covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = max(s.Dur, 0)
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.Dur > 0 {
			self[s.Parent] -= s.Dur
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// layerSelf sums the workload's self time per layer, in nanoseconds, leaving
// out the probes.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, ns := range selfTimes(spans) {
		if !spans[i].Probe {
			out[spans[i].Layer] += ns
		}
	}
	return out
}

// layerShare is a layer's share, in percent, of the self time of all the
// system's layers. The benchmark's own glue ("bench": waiting for workers,
// idling between points) is not part of the system and not in the total.
func layerShare(by map[string]int64, layer string) float64 {
	var total int64
	for l, ns := range by {
		if l != "bench" {
			total += ns
		}
	}
	if total == 0 || layer == "bench" {
		return 0
	}
	return 100 * float64(by[layer]) / float64(total)
}

// selfTable renders the per-layer self-time table of one traced workload.
func selfTable(w io.Writer, workload string, spans []span) {
	by := layerSelf(spans)
	count := make(map[string]int)
	for _, s := range spans {
		if !s.Probe {
			count[s.Layer]++
		}
	}
	fmt.Fprintf(w, "per-layer self time — %s\n", workload)
	fmt.Fprintf(w, "  %-8s %8s %12s %7s\n", "layer", "spans", "self ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-8s %8d %12.3f %6.1f%%\n", l, count[l], float64(by[l])/1e6, layerShare(by, l))
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// chrome://tracing and ui.perfetto.dev both load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every workload's spans to path, one process per
// workload and one thread per track.
func writeChromeTrace(path string, byWorkload map[string][]span) error {
	names := make([]string, 0, len(byWorkload))
	for name := range byWorkload {
		names = append(names, name)
	}
	sort.Strings(names)
	var evs []chromeEvent
	for pid, name := range names {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
		for _, s := range byWorkload[name] {
			if s.Dur < 0 {
				continue
			}
			evs = append(evs, chromeEvent{
				Name: s.Name, Cat: s.Layer, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
				Pid: pid, Tid: s.Track,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "point": s.Point, "probe": s.Probe},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
