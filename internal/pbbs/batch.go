package pbbs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/fanout"
)

// Batch harness: measure many (kernel, dataset size) points concurrently and
// aggregate them into the paper's Fig. 7 report. Each point compiles, runs
// and analyses independently, so the repo's one parallel-for scales it.

// MeasureAll measures every kernel at every dataset size, at most workers
// points at a time (workers <= 0 uses GOMAXPROCS; see fanout.Each). The
// points come back sorted by (benchmark ID, size). Per-point failures are
// collected and joined; the successfully measured points are still returned.
func MeasureAll(kernels []*Kernel, sizes []int, seed uint64, workers int) ([]*ILPPoint, error) {
	// One placeholder per point to measure, replaced by its measurement.
	var points []*ILPPoint
	for _, k := range kernels {
		// Sizes below the kernel's minimum clamp to the same point; dedup so
		// the sweep measures each (kernel, effective size) once.
		seen := make(map[int]bool, len(sizes))
		for _, n := range sizes {
			n = k.ClampN(n)
			if !seen[n] {
				seen[n] = true
				points = append(points, &ILPPoint{Kernel: k, N: n})
			}
		}
	}
	errs := make([]error, len(points))
	fanout.Each(len(points), workers, func(i int) {
		points[i], errs[i] = points[i].Kernel.MeasureILP(points[i].N, seed)
	})
	points = slices.DeleteFunc(points, func(p *ILPPoint) bool { return p == nil })
	sort.Slice(points, func(i, j int) bool {
		if points[i].Kernel.ID != points[j].Kernel.ID {
			return points[i].Kernel.ID < points[j].Kernel.ID
		}
		return points[i].N < points[j].N
	})
	return points, errors.Join(errs...)
}

// Fig7Table renders measured points as the paper's Fig. 7 (Table 1) style
// report: one row per (benchmark, size) with the trace length and the ILP
// under the sequential and parallel dependence models.
func Fig7Table(points []*ILPPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-40s %8s %10s %9s %9s %9s\n",
		"#", "benchmark", "n", "instr", "seq-ILP", "par-ILP", "par/seq")
	last := 0
	for _, p := range points {
		id := ""
		if p.Kernel.ID != last {
			id = fmt.Sprintf("%d", p.Kernel.ID)
			last = p.Kernel.ID
		}
		fmt.Fprintf(&b, "%-3s %-40s %8d %10d %9.1f %9.1f %9.1f\n",
			id, p.Kernel.Name, p.N, p.Instructions, p.SeqILP, p.ParILP, p.Speedup())
	}
	return b.String()
}
