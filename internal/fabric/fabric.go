// Package fabric distributes sweep grids across worker processes.
//
// A Coordinator owns the grid: sweeps submitted through Coordinator.Run or
// Coordinator.Fill are split into points, and registered workers lease batches of them over a
// small HTTP/JSON protocol (mounted under /fabric/v1/), measure each point
// with their local sweep.Engine (machine pool, front-end memo and
// singleflight intact), and report the records back. A batch follows front
// ends, so a kernel is normally compiled by the one worker that runs its
// points (Coordinator.Lease). Work-stealing falls out of the lease discipline:
// a lease expires after Coordinator.LeaseTTL, its unfinished points re-queue
// at the front, and whichever worker polls next picks them up — so a worker
// killed mid-batch costs only its in-flight points.
//
// The protocol is deliberately idempotent. Results are matched by an opaque
// per-point task ID and completed first-write-wins: a late report for an
// already re-leased point, or a duplicated report RPC, is counted and
// discarded. Every accepted successful record is merged into the
// coordinator's content-keyed cache under the record's sweep cache key, so
// the streamed JSONL is byte-identical to a single-process `repro sweep`
// over the same grid against that cache, and a cold coordinator restart
// re-serves the whole grid from cache without simulating anything.
//
// With no workers registered a sweep runs on the coordinator's own engine
// (the exact single-process path), and if every worker disappears mid-sweep
// a watchdog drains the remaining points locally — the fabric degrades to
// PR 4's one-process server, never to a hang.
package fabric

import "repro/internal/sweep"

// Protocol paths, mounted by Handler. Version the wire format, not the
// package: a breaking DTO change bumps /fabric/v2/.
const (
	PathRegister = "/fabric/v1/register"
	PathLease    = "/fabric/v1/lease"
	PathReport   = "/fabric/v1/report"
	PathStatus   = "/fabric/v1/status"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human-readable worker label (host:pid by convention); it
	// only decorates logs and status, identity is the returned Worker ID.
	Name string `json:"name"`
}

// RegisterResponse assigns the worker its ID and the coordinator's tuning.
type RegisterResponse struct {
	// Worker is the coordinator-assigned worker ID, presented on every
	// subsequent lease and report.
	Worker string `json:"worker"`
	// LeaseMS is the lease TTL: a worker holding a batch longer than this
	// without reporting should expect the points to be re-leased elsewhere.
	LeaseMS int64 `json:"leaseMs"`
	// PollMS is the suggested idle poll interval (well under LeaseMS so an
	// idle worker stays visibly alive).
	PollMS int64 `json:"pollMs"`
	// Batch is the maximum number of points per lease.
	Batch int `json:"batch"`
}

// LeaseRequest asks for a batch of work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeasePoint is one grid point of a lease: the opaque task ID the worker
// must echo in its report, and the point to measure.
type LeasePoint struct {
	Task  string      `json:"task"`
	Point sweep.Point `json:"point"`
}

// LeaseResponse grants a batch. An empty Points slice means no work is
// pending; the worker polls again after its poll interval.
type LeaseResponse struct {
	// Lease identifies the grant; empty when Points is empty.
	Lease  string       `json:"lease,omitempty"`
	Points []LeasePoint `json:"points,omitempty"`
}

// ReportResult is one measured point: the task ID it answers and the full
// sweep record (metrics, content key, error) the worker's engine produced.
type ReportResult struct {
	Task   string       `json:"task"`
	Record sweep.Record `json:"record"`
}

// ReportRequest delivers a batch of results.
type ReportRequest struct {
	Worker  string         `json:"worker"`
	Lease   string         `json:"lease,omitempty"`
	Results []ReportResult `json:"results"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	// Accepted counts results that completed a pending point.
	Accepted int `json:"accepted"`
	// Duplicates counts results for points already completed (late report
	// after a re-lease, or a duplicated report RPC) — discarded, harmlessly.
	Duplicates int `json:"duplicates"`
}

// Stats is the coordinator's counters, served at PathStatus.
type Stats struct {
	// Workers is how many workers have registered over the coordinator's
	// lifetime (the fleet size the scheduler believes in).
	Workers int `json:"workers"`
	// LiveWorkers is how many of them contacted the coordinator recently
	// (within the liveness window).
	LiveWorkers int `json:"liveWorkers"`
	// Pending is how many points are queued waiting for a lease right now.
	Pending int `json:"pending"`
	// Leased is how many points are out on unexpired leases right now.
	Leased int `json:"leased"`
	// Granted counts leases handed out.
	Granted int `json:"granted"`
	// Expired counts leases that timed out and had points re-queued.
	Expired int `json:"expired"`
	// Reports counts report RPCs received.
	Reports int `json:"reports"`
	// Accepted counts results that completed a point.
	Accepted int `json:"accepted"`
	// Duplicates counts discarded duplicate/stale results.
	Duplicates int `json:"duplicates"`
	// LocalRuns counts sweeps that ran entirely on the coordinator's engine
	// because no worker had registered.
	LocalRuns int `json:"localRuns"`
	// LocalPoints counts points the watchdog drained locally after the
	// fleet went quiet mid-sweep.
	LocalPoints int `json:"localPoints"`
}
