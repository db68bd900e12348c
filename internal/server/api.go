package server

import (
	"encoding/json"
	"fmt"

	"repro/internal/pbbs"
	"repro/internal/sweep"
)

// KernelSel selects a kernel in a request body: a benchmark number (2 or
// "2") or a case-insensitive name substring ("quicksort") — anything
// pbbs.Find accepts. Both JSON numbers and JSON strings are accepted.
type KernelSel string

// UnmarshalJSON implements json.Unmarshaler. The first byte picks the
// decode: a JSON string decodes as a string, anything else as a number, which
// null passes as the empty selector.
func (k *KernelSel) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err == nil {
			*k = KernelSel(s)
			return nil
		}
	} else {
		var n json.Number
		if err := json.Unmarshal(b, &n); err == nil {
			*k = KernelSel(n.String())
			return nil
		}
	}
	return fmt.Errorf("kernel selector must be a number or a string, got %s", b)
}

// What one request may ask of the server, next to the body caps: a body under
// 1 MiB can spell a 10⁹-point cross-product, which the manager would
// enumerate in the handler; any core count, which the machine turns into a
// slab of that many cores; and any dataset size, which the kernel's source
// turns into arrays of that many words in the data segment. The paper's
// widest run is 3 072 cores. The CLI is not capped.
const (
	maxGridPoints = 1 << 16
	maxCores      = 1 << 16
	maxN          = 1 << 16
)

// checkLimit rejects a requested value above its cap.
func checkLimit(what string, v, limit int) error {
	if v > limit {
		return fmt.Errorf("%s %d above the limit of %d", what, v, limit)
	}
	return nil
}

// SweepRequest is the body of POST /v1/sweeps. Every axis is optional and
// takes sweep.Spec's default: all kernels, size 64, 1 core, crossbar,
// shortcut on, no placement cap, seed 1. `repro sweep`'s flags default the
// same, except -cores, which is 1,4,16.
type SweepRequest struct {
	Kernels     []KernelSel `json:"kernels"`
	Sizes       []int       `json:"sizes"`
	Cores       []int       `json:"cores"`
	Topologies  []string    `json:"topologies"`
	Shortcut    []bool      `json:"shortcut"`
	MaxSections []int       `json:"maxSections"`
	Seed        uint64      `json:"seed"`
}

// Spec resolves the request into a validated, normalised sweep grid.
func (r *SweepRequest) Spec() (*sweep.Spec, error) {
	spec := &sweep.Spec{
		Sizes: r.Sizes, Cores: r.Cores, Topologies: r.Topologies,
		Shortcut: r.Shortcut, MaxSections: r.MaxSections, Seed: r.Seed,
	}
	for _, sel := range r.Kernels {
		k, err := pbbs.Find(string(sel))
		if err != nil {
			return nil, err
		}
		spec.Kernels = append(spec.Kernels, k.ID)
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	for _, c := range spec.Cores {
		if err := checkLimit("core count", c, maxCores); err != nil {
			return nil, err
		}
	}
	for _, n := range spec.Sizes {
		if err := checkLimit("dataset size", n, maxN); err != nil {
			return nil, err
		}
	}
	// The grid is at most the product of the axis lengths (each at least 1
	// once normalised); dividing keeps the check clear of overflow.
	points := 1
	for _, axis := range []int{len(spec.Kernels), len(spec.Sizes), len(spec.Cores),
		len(spec.Topologies), len(spec.Shortcut), len(spec.MaxSections)} {
		if axis > maxGridPoints/points {
			return nil, fmt.Errorf("grid above the limit of %d points", maxGridPoints)
		}
		points *= axis
	}
	return spec, nil
}

// RunRequest is the body of POST /v1/runs: one machine point. Kernel is
// required; every other field is the one-point axis of a SweepRequest, so a
// zero value takes that axis's default and the same checks and caps apply.
type RunRequest struct {
	Kernel      KernelSel `json:"kernel"`
	N           int       `json:"n"`
	Cores       int       `json:"cores"`
	Topology    string    `json:"topology"`
	Shortcut    *bool     `json:"shortcut"`
	MaxSections int       `json:"maxSections"`
	Seed        uint64    `json:"seed"`
}

// sweepRequest is the one-point SweepRequest the run request stands for.
func (r *RunRequest) sweepRequest() SweepRequest {
	req := SweepRequest{
		Kernels: []KernelSel{r.Kernel}, Sizes: axis(r.N), Cores: axis(r.Cores),
		Topologies: axis(r.Topology), MaxSections: axis(r.MaxSections), Seed: r.Seed,
	}
	if r.Shortcut != nil {
		req.Shortcut = []bool{*r.Shortcut}
	}
	return req
}

// axis is the one-value axis a run request's field v stands for: empty, so
// defaulted, when v is the zero value.
func axis[T comparable](v T) []T {
	if v == *new(T) {
		return nil
	}
	return []T{v}
}

// Point resolves the request into the one point of its sweepRequest's spec.
func (r *RunRequest) Point() (sweep.Point, error) {
	if r.Kernel == "" {
		return sweep.Point{}, fmt.Errorf("kernel is required")
	}
	req := r.sweepRequest()
	spec, err := req.Spec()
	if err != nil {
		return sweep.Point{}, err
	}
	pts, err := spec.Points()
	if err != nil {
		return sweep.Point{}, err
	}
	// Keep the requested size: the engine clamps to the kernel's minimum
	// and surfaces the original in the record's RequestedN, which the
	// spec's eager clamp would erase.
	p := pts[0]
	p.N = spec.Sizes[0]
	return p, nil
}
