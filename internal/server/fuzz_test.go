package server

import (
	"bytes"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/jsonhttp"
	"repro/internal/pbbs"
	"repro/internal/sweep"
)

// The request decoders' contract, for any bytes a client can POST: decoding
// (strict JSON, 1 MiB) and then Spec or Point either refuse with an error or
// resolve to something within the caps a request may ask for — never a panic,
// and never a grid, core count or dataset size past maxGridPoints, maxCores or
// maxN. Both targets are seeded with TestBadRequests' bodies.

// seedBodies adds TestBadRequests' bodies to f's corpus, except the 100 kB
// grid: the fuzzing engine minimises every new interesting input for up to a
// minute, and mutants of that body spend a short campaign's whole budget
// there. The 2 kB grid one row over the cap stands in for it.
func seedBodies(f *testing.F) {
	for _, c := range slices.Concat(overLimitBodies, badBodies) {
		if len(c.body) <= 4<<10 {
			f.Add([]byte(c.body))
		}
	}
}

// decodeBytes decodes body as a POST of it would be.
func decodeBytes(body []byte, v any) error {
	_, err := jsonhttp.Decode(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(body)), maxBody, v)
	return err
}

func FuzzSweepRequest(f *testing.F) {
	seedBodies(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if decodeBytes(body, &req) != nil {
			return
		}
		spec, err := req.Spec()
		if err != nil {
			return
		}
		pts, err := spec.Points()
		if err != nil {
			t.Fatalf("accepted spec %+v does not enumerate: %v", spec, err)
		}
		if len(pts) == 0 || len(pts) > maxGridPoints {
			t.Fatalf("accepted spec enumerates %d points, want 1..%d", len(pts), maxGridPoints)
		}
		for _, p := range pts {
			if p.Cores < 1 || p.Cores > maxCores || p.N < 1 || p.N > maxN {
				t.Fatalf("accepted point %+v has cores or size outside 1..%d", p, maxCores)
			}
		}
	})
}

func FuzzRunRequest(f *testing.F) {
	seedBodies(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if decodeBytes(body, &req) != nil {
			return
		}
		p, err := req.Point()
		if err != nil {
			return
		}
		if p.Cores < 1 || p.Cores > maxCores || p.N < 1 || p.N > maxN {
			t.Fatalf("accepted point %+v has cores or size outside 1..%d", p, maxCores)
		}
		if _, err := pbbs.ByID(p.Kernel); err != nil || !slices.Contains(sweep.Topologies, p.Topology) ||
			p.MaxSections < 0 || p.Seed == 0 {
			t.Fatalf("accepted point %+v is not a grid point", p)
		}
	})
}
