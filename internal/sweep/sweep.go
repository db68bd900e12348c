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

// Topologies lists the supported NoC topology names, in catalog order.
// internal/noc.Catalog is the single source of truth; the constants above
// exist so grid code can name topologies without indexing the catalog.
var Topologies = func() []string {
	cat := noc.Catalog()
	names := make([]string, len(cat))
	for i, t := range cat {
		names[i] = t.Name
	}
	return names
}()

// MakeNet builds the named topology over the given core count with unit hop
// latency. Meshes use the most square w×h factorisation of cores.
func MakeNet(name string, cores int) (noc.Network, error) {
	switch name {
	case TopoCrossbar:
		return noc.NewCrossbar(cores, 1), nil
	case TopoRing:
		return noc.NewRing(cores, 1), nil
	case TopoMesh:
		w := 1
		for d := 1; d*d <= cores; d++ {
			if cores%d == 0 {
				w = d
			}
		}
		return noc.NewMesh(w, cores/w, 1), nil
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
		s.Sizes = []int{64}
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
		if _, err := MakeNet(t, 1); err != nil {
			return err
		}
	}
	if len(s.Shortcut) == 0 {
		s.Shortcut = []bool{true}
	}
	if len(s.MaxSections) == 0 {
		s.MaxSections = []int{0}
	}
	for _, ms := range s.MaxSections {
		if ms < 0 {
			return fmt.Errorf("sweep: bad max-sections cap %d", ms)
		}
	}
	if s.Seed == 0 {
		s.Seed = 1
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
// topology, shortcut, cap. Sizes below a kernel's minimum clamp onto the
// same point; such duplicates are enumerated once.
func (s *Spec) Points() ([]Point, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	var pts []Point
	seen := make(map[Point]bool)
	for _, id := range s.Kernels {
		k, err := pbbs.ByID(id)
		if err != nil {
			return nil, err
		}
		for _, n := range s.Sizes {
			n = k.ClampN(n)
			for _, cores := range s.Cores {
				for _, topo := range s.Topologies {
					for _, sc := range s.Shortcut {
						for _, secCap := range s.MaxSections {
							p := Point{
								Kernel: k.ID, Name: k.Name, N: n,
								Cores: cores, Topology: topo,
								Shortcut: sc, MaxSections: secCap,
								Seed: s.Seed,
							}
							if seen[p] {
								continue
							}
							seen[p] = true
							pts = append(pts, p)
						}
					}
				}
			}
		}
	}
	return pts, nil
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
