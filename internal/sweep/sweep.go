// Package sweep is the many-core scaling laboratory: it runs the
// cycle-level machine simulator (internal/machine) across the cross-product
// of {kernel, dataset size, core count, NoC topology, call-level shortcut,
// section-placement cap} and reports how the paper's fork-based design
// scales (§4.2, Figs. 8–10).
//
// The package is also the repo's grid runner: Engine.MeasureEach measures
// points concurrently (bounded by internal/fanout), Stream re-orders the
// records so results stream out in deterministic grid order as JSONL plus a
// rendered table, and a content-keyed persistent cache (internal/sweep.Cache)
// makes repeated points free — the cache key hashes the compiled kernel
// source, the generated inputs and the full machine configuration, so any
// change to compiler output, workload generator or simulator parameters
// re-measures exactly the points it invalidates.
//
// Two sweep files can be diffed (Diff, DiffTable) to quantify speedups and
// regressions between configurations or code revisions: machine IPC,
// cycles, and NoC message counts.
package sweep

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/noc"
	"repro/internal/pbbs"
)

// Topology names accepted by Spec and MakeNet.
const (
	TopoCrossbar = "crossbar"
	TopoRing     = "ring"
	TopoMesh     = "mesh"
)

// The values Normalize gives a defaulted axis (besides every kernel, one core
// and TopoCrossbar); `repro sweep`'s flags default to them too.
const (
	DefaultSize        = 64
	DefaultShortcut    = true
	DefaultMaxSections = 0
	DefaultSeed        = 1
)

// Topologies lists the supported NoC topology names, in catalog order.
// internal/noc's topology table is the single source of truth; the constants
// above exist so grid code can name topologies without indexing the catalog.
var Topologies = func() []string {
	cat := noc.Catalog()
	names := make([]string, len(cat))
	for i, t := range cat {
		names[i] = t.Name
	}
	return names
}()

// MakeNet builds the named topology over the given core count with unit hop
// latency (noc.New; meshes take the most square w×h factorisation of cores).
func MakeNet(name string, cores int) (noc.Network, error) {
	if net, ok := noc.New(name, cores); ok {
		return net, nil
	}
	return nil, fmt.Errorf("sweep: unknown topology %q (want %s)", name, strings.Join(Topologies, "|"))
}

// Spec describes a sweep grid. Every slice is one axis of the cross-product;
// an empty axis gets a single default value (see Normalize).
type Spec struct {
	// Kernels is the benchmark ID axis.
	Kernels []int
	// Sizes is the dataset-size axis (clamped per kernel, duplicates after
	// clamping are measured once).
	Sizes []int
	// Cores is the core-count axis.
	Cores []int
	// Topologies is the NoC topology axis (names from Topologies).
	Topologies []string
	// Shortcut is the call-level-shortcut axis (§4.2 ablation).
	Shortcut []bool
	// MaxSections is the MaxSectionsPerCore placement axis (0 = spread).
	MaxSections []int
	// Seed is the workload seed shared by every point.
	Seed uint64
}

// Normalize fills defaulted axes (all kernels; size 64; 1 core; crossbar;
// shortcut on; no placement cap; seed 1) and validates the rest.
func (s *Spec) Normalize() error {
	if len(s.Kernels) == 0 {
		for _, k := range pbbs.Kernels() {
			s.Kernels = append(s.Kernels, k.ID)
		}
	}
	for _, id := range s.Kernels {
		if _, err := pbbs.ByID(id); err != nil {
			return err
		}
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []int{DefaultSize}
	}
	for _, n := range s.Sizes {
		if n <= 0 {
			return fmt.Errorf("sweep: bad dataset size %d", n)
		}
	}
	if len(s.Cores) == 0 {
		s.Cores = []int{1}
	}
	for _, c := range s.Cores {
		if c < 1 {
			return fmt.Errorf("sweep: bad core count %d", c)
		}
	}
	if len(s.Topologies) == 0 {
		s.Topologies = []string{TopoCrossbar}
	}
	for _, t := range s.Topologies {
		if !slices.Contains(Topologies, t) {
			_, err := MakeNet(t, 1) // words the refusal
			return err
		}
	}
	if len(s.Shortcut) == 0 {
		s.Shortcut = []bool{DefaultShortcut}
	}
	if len(s.MaxSections) == 0 {
		s.MaxSections = []int{DefaultMaxSections}
	}
	for _, ms := range s.MaxSections {
		if ms < 0 {
			return fmt.Errorf("sweep: bad max-sections cap %d", ms)
		}
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	return nil
}

// Point is one configuration of the grid: a kernel at a dataset size on one
// machine configuration. Point is comparable and keys the baseline diff.
type Point struct {
	Kernel      int    `json:"kernel"`
	Name        string `json:"name"`
	N           int    `json:"n"`
	Cores       int    `json:"cores"`
	Topology    string `json:"topology"`
	Shortcut    bool   `json:"shortcut"`
	MaxSections int    `json:"maxSections"`
	Seed        uint64 `json:"seed"`
}

// Front is what a point compiles to, the part the scaling study holds fixed
// while it varies the chip: an engine compiles and hashes once per Front, and
// the fabric's lease queue groups points by it. N must be clamped.
type Front struct {
	Kernel, N int
	Seed      uint64
}

// Front returns the Front p compiles to.
func (p Point) Front() Front { return Front{p.Kernel, p.N, p.Seed} }

// key is the diff-matching identity: every grid coordinate except the
// human-readable name.
func (p Point) key() Point {
	p.Name = ""
	return p
}

// Config renders the machine-configuration coordinates compactly.
func (p Point) Config() string {
	sc := "off"
	if p.Shortcut {
		sc = "on"
	}
	return fmt.Sprintf("c%d/%s/sc=%s/cap=%d", p.Cores, p.Topology, sc, p.MaxSections)
}

// Points enumerates the grid in deterministic order: kernel, size, cores,
// topology, shortcut, cap. Each axis keeps a repeated value at its first
// occurrence only, and a kernel, which runs every size at or below its
// minimum at the minimum, keeps the first such size only. The grid is a
// nested product, so this enumerates every distinct point once, in the order
// of its first occurrence. The result is allocated once, at the product of
// the axes' distinct lengths, and the spec's axes are only read.
func (s *Spec) Points() ([]Point, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	kernels, sizes, cores := distinct(s.Kernels), distinct(s.Sizes), distinct(s.Cores)
	topos, shortcut, caps := distinct(s.Topologies), distinct(s.Shortcut), distinct(s.MaxSections)
	pts := make([]Point, 0, len(kernels)*len(sizes)*len(cores)*len(topos)*len(shortcut)*len(caps))
	for _, id := range kernels {
		k, _ := pbbs.ByID(id) // Normalize resolved every kernel
		atMin := slices.IndexFunc(sizes, func(n int) bool { return n <= k.MinN })
		for i, n := range sizes {
			if n <= k.MinN && i != atMin {
				continue
			}
			for _, c := range cores {
				for _, topo := range topos {
					for _, sc := range shortcut {
						for _, secCap := range caps {
							pts = append(pts, Point{
								Kernel: k.ID, Name: k.Name, N: k.ClampN(n),
								Cores: c, Topology: topo,
								Shortcut: sc, MaxSections: secCap,
								Seed: s.Seed,
							})
						}
					}
				}
			}
		}
	}
	return pts, nil
}

// distinct returns axis with every value kept at its first occurrence only:
// axis itself, unmodified and without allocating, when no value repeats. A
// value repeats if it is among the distinct values before it, found by
// scanning them or, on an axis longer than 64 values, in a set: the server
// admits axes of 65 536 values, whose scans would take most of a second.
func distinct[T comparable](axis []T) []T {
	var set map[T]bool
	if len(axis) > 64 {
		set = make(map[T]bool, len(axis))
	}
	var out []T // the distinct values so far, once a value has repeated
	for i, v := range axis {
		var repeat bool
		switch {
		case set != nil:
			repeat, set[v] = set[v], true
		case out == nil:
			repeat = slices.Contains(axis[:i], v)
		default:
			repeat = slices.Contains(out, v)
		}
		switch {
		case repeat && out == nil:
			out = append(make([]T, 0, len(axis)-1), axis[:i]...)
		case !repeat && out != nil:
			out = append(out, v)
		}
	}
	if out == nil {
		return axis
	}
	return out
}

// Metrics is what one machine run yields for a point: the scaling quantities
// of Figs. 8–10 plus the NoC traffic accounting.
type Metrics struct {
	Instructions     int64   `json:"instructions"`
	Cycles           int64   `json:"cycles"`
	IPC              float64 `json:"ipc"`
	FetchCycles      int64   `json:"fetchCycles"`
	RetireCycles     int64   `json:"retireCycles"`
	Sections         int     `json:"sections"`
	RegRequests      int64   `json:"regRequests"`
	MemRequests      int64   `json:"memRequests"`
	CreateMessages   int64   `json:"createMessages"`
	RequestHops      int64   `json:"requestHops"`
	ResponseMessages int64   `json:"responseMessages"`
	DMHAnswers       int64   `json:"dmhAnswers"`
	NocMessages      int64   `json:"nocMessages"`
	Checksum         uint64  `json:"checksum"`
	// SimNs is the wall-clock nanoseconds the machine simulation took when
	// this point was measured (cache hits, from the file or the engine's
	// memory, keep the time of the original measurement, so cached re-runs
	// stay byte-identical).
	SimNs int64 `json:"simNs"`
	// NsPerCycle is SimNs per simulated cycle — the host's speed on this
	// point, the simulator's figure of merit.
	NsPerCycle float64 `json:"nsPerCycle"`
}

// StripTiming returns a copy of m with the wall-clock fields zeroed, for
// comparing metrics across runs: the simulation outcome is deterministic,
// the host timing is not.
func (m Metrics) StripTiming() Metrics {
	m.SimNs = 0
	m.NsPerCycle = 0
	return m
}

// Record is one emitted sweep row: the point, its metrics, the content hash
// that keys the cache, and the error message when the point failed.
type Record struct {
	Point
	Metrics
	// RequestedN is the dataset size the caller asked for when it was below
	// the kernel's minimum and got clamped up: the embedded Point carries
	// the effective size that ran, this field the original request. Zero
	// when no clamping happened.
	RequestedN int    `json:"requestedN,omitempty"`
	Key        string `json:"key,omitempty"`
	Err        string `json:"error,omitempty"`
}

// Table renders records as an aligned report, one row per point. ns/cyc is
// host wall time per simulated cycle (from the original measurement for
// cached points).
func Table(recs []Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-28s %6s %6s %-9s %-3s %4s %10s %10s %7s %5s %9s %7s %8s\n",
		"#", "benchmark", "n", "cores", "topology", "sc", "cap",
		"instr", "cycles", "IPC", "secs", "noc-msgs", "ns/cyc", "status")
	for _, r := range recs {
		name := r.Name
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		sc := "off"
		if r.Shortcut {
			sc = "on"
		}
		status := "ok"
		if r.Err != "" {
			status = "FAIL: " + r.Err
		}
		fmt.Fprintf(&b, "%-3d %-28s %6d %6d %-9s %-3s %4d %10d %10d %7.2f %5d %9d %7.0f %8s\n",
			r.Kernel, name, r.N, r.Cores, r.Topology, sc, r.MaxSections,
			r.Instructions, r.Cycles, r.IPC, r.Sections, r.Metrics.NocMessages,
			r.NsPerCycle, status)
	}
	return b.String()
}
