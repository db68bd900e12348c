package fabric

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/sweep"
)

// ErrUnknownWorker rejects leases and reports from workers the coordinator
// has never seen (or that outlived a coordinator restart). The worker's
// recovery is to register again.
var ErrUnknownWorker = errors.New("fabric: unknown worker")

// The coordinator's defaults for LeaseTTL and Batch.
const (
	DefaultLeaseTTL = 5 * time.Second
	DefaultBatch    = 8
)

// Coordinator owns sweep grids and hands their points to registered workers
// in leased batches that follow front ends: a worker is granted more points
// of the kernel it compiled for its last lease before anything else, so a
// kernel is normally compiled by one worker only (see Lease). The zero value
// is not usable; populate Eng (and normally Cache) and share one Coordinator
// between the HTTP handler and every Run and Fill caller. All methods are
// safe for concurrent use.
type Coordinator struct {
	// Eng runs sweeps locally when no worker is registered and drains
	// leftover points when the fleet goes quiet mid-sweep. Required.
	Eng *sweep.Engine
	// Cache, when non-nil, receives every accepted successful record under
	// its content key. Point it at the same store Eng uses: that is what
	// makes a post-sweep single-process run — or a cold coordinator restart
	// — serve the whole grid from cache, byte-identical.
	Cache *sweep.Cache
	// LeaseTTL is how long a worker may sit on a leased batch without
	// reporting before the points re-queue (default DefaultLeaseTTL). A live
	// worker renews its lease every poll interval while it measures.
	LeaseTTL time.Duration
	// Batch is the maximum points per lease and per report (default
	// DefaultBatch). A lease is smaller while the queue is short: Lease
	// shares the pending points out among the live workers.
	Batch int
	// Log receives scheduler events; slog.Default when nil.
	Log *slog.Logger

	// now overrides the clock in tests.
	now func() time.Time
	// beforePut, when set by a test, runs before every cache merge, so a
	// test can hold a record in the window between accepted and durable.
	beforePut func()

	mu       sync.Mutex
	seq      int
	workers  map[string]*workerInfo
	tasks    map[string]*task
	requeued []*task                // points of expired leases, granted first
	queue    []*front               // front ends in the order their first point queued
	fronts   map[sweep.Front]*front // the front ends of queue with points pending
	queued   int                    // points in requeued and queue
	leases   map[string]*lease
	stats    Stats
}

type workerInfo struct {
	name     string
	lastSeen time.Time
	front    sweep.Front // of the last point granted, unless a re-grant left it (grantLocked)
}

// front is one front end's queued points, in grid order (Spec.Points clamps
// their sizes, as sweep.Front wants). A worker holds the front end of the
// last point granted to it.
type front struct {
	key   sweep.Front
	tasks []*task
}

// task is one grid point awaiting a result. Its ID is the idempotency key:
// it stays resolvable across lease expiries and re-grants, and is deleted
// the moment a result is accepted, so every later report of it is a
// duplicate by construction. The record lands at idx of the stream the owning
// Fill fills, which decides first-write-wins and streams grid order no matter
// which worker finishes what when.
type task struct {
	id     string
	pt     sweep.Point
	out    *sweep.Stream
	idx    int
	queued bool // in requeued or a front end's queue (guards against double re-queue)
}

func (t *task) done() bool { return t.out.Done(t.idx) }

type lease struct {
	id       string
	worker   string
	tasks    []*task
	deadline time.Time
}

func (c *Coordinator) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *Coordinator) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

// pollInterval is the idle-poll suggestion sent to workers: well under the
// lease TTL so an idle worker keeps itself visibly live.
func (c *Coordinator) pollInterval() time.Duration {
	p := c.leaseTTL() / 5
	if p < 10*time.Millisecond {
		p = 10 * time.Millisecond
	}
	return p
}

// liveness is the window within which a worker's last RPC counts it alive.
// Longer than the poll interval by a wide margin, so only a genuinely gone
// fleet triggers the local drain.
func (c *Coordinator) liveness() time.Duration { return 2 * c.leaseTTL() }

// alive reports whether w's last RPC falls within the liveness window.
func (c *Coordinator) alive(w *workerInfo, now time.Time) bool {
	return now.Sub(w.lastSeen) <= c.liveness()
}

func (c *Coordinator) batchSize() int {
	if c.Batch > 0 {
		return c.Batch
	}
	return DefaultBatch
}

func (c *Coordinator) logger() *slog.Logger {
	if c.Log != nil {
		return c.Log
	}
	return slog.Default()
}

func (c *Coordinator) initLocked() {
	if c.workers == nil {
		c.workers = make(map[string]*workerInfo)
		c.tasks = make(map[string]*task)
		c.fronts = make(map[sweep.Front]*front)
		c.leases = make(map[string]*lease)
	}
}

// Register admits a worker and returns its ID plus the coordinator's lease
// and poll tuning.
func (c *Coordinator) Register(name string) RegisterResponse {
	now := c.clock()
	c.mu.Lock()
	c.initLocked()
	c.seq++
	id := fmt.Sprintf("w%d", c.seq)
	c.workers[id] = &workerInfo{name: name, lastSeen: now}
	n := len(c.workers)
	c.mu.Unlock()
	c.logger().Info("fabric worker registered", "worker", id, "name", name, "fleet", n)
	return RegisterResponse{
		Worker:  id,
		LeaseMS: c.leaseTTL().Milliseconds(),
		PollMS:  c.pollInterval().Milliseconds(),
		Batch:   c.batchSize(),
	}
}

// Lease grants the polling worker pending points, or an empty response when
// nothing is queued. The points of expired leases go first, up to Batch of
// them and nothing else. Otherwise the grant is a share of
// s = min(Batch, ⌈pending/(2·live workers)⌉) points, which shrinks as the
// queue drains so that the last points are spread over the fleet, taken in
// this order:
//
//   - from the front end the worker holds, which its engine has compiled
//     already: that of the last point granted to it, or, when that grant
//     was expired points alone, the one it held before while that still
//     has points queued;
//   - from whole front ends no other live worker holds, in queue order (one
//     larger than what is left of the share is split only when the grant
//     would otherwise be empty);
//   - only when every pending front end is held by another worker, from the
//     one with the most points pending: the one place where a kernel is
//     compiled by two workers.
func (c *Coordinator) Lease(workerID string) (LeaseResponse, error) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	w := c.workers[workerID]
	if w == nil {
		return LeaseResponse{}, ErrUnknownWorker
	}
	w.lastSeen = now
	c.expireLocked(now)
	batch := c.grantLocked(workerID, w, now)
	if len(batch) == 0 {
		return LeaseResponse{}, nil
	}
	c.seq++
	l := &lease{
		id:       fmt.Sprintf("l%d", c.seq),
		worker:   workerID,
		tasks:    batch,
		deadline: now.Add(c.leaseTTL()),
	}
	c.leases[l.id] = l
	c.stats.Granted++
	resp := LeaseResponse{Lease: l.id, Points: make([]LeasePoint, len(batch))}
	for i, t := range batch {
		resp.Points[i] = LeasePoint{Task: t.id, Point: t.pt}
	}
	return resp, nil
}

// Report accepts measured records. Completion is first-write-wins per task:
// results for already-completed (or unknown) tasks are counted as
// duplicates and discarded, which is what makes duplicated report RPCs and
// late reports after a re-lease idempotent. A result that does not fit its
// task (see fits) is rejected outright and the point stays pending, so a
// confused or hostile worker can neither corrupt the grid nor write outside
// the cache. Successful records are merged into the cache under their content
// key before they complete their task: completion lets the run's readers see
// the record, and a record a client has seen must survive a coordinator
// restart. A report of more results than a lease holds is refused whole. A
// report from the worker holding its lease moves the lease's deadline one TTL
// on: a worker renews the lease of a batch it is still measuring with empty
// reports, so a batch longer than the TTL is not re-queued while it is
// measured.
func (c *Coordinator) Report(req ReportRequest) (ReportResponse, error) {
	if len(req.Results) > c.batchSize() {
		return ReportResponse{}, fmt.Errorf("fabric: report of %d results, a lease holds at most %d", len(req.Results), c.batchSize())
	}
	now := c.clock()
	c.mu.Lock()
	w := c.workers[req.Worker]
	if w == nil {
		c.mu.Unlock()
		return ReportResponse{}, ErrUnknownWorker
	}
	w.lastSeen = now
	c.stats.Reports++
	c.expireLocked(now)
	// The records the second pass below will accept, barring a racing report
	// of the same task (which then merges the same content twice).
	var merge []*sweep.Record
	for i := range req.Results {
		r := &req.Results[i]
		if t := c.tasks[r.Task]; t != nil && fits(t, &r.Record) {
			merge = append(merge, &r.Record)
		}
	}
	c.mu.Unlock()
	// Cache merge is file IO; do it off the scheduler lock. Put is
	// content-keyed and atomic, so racing a worker (or a concurrent report of
	// the same task) writing the same key is harmless.
	for _, rec := range merge {
		c.mergeIntoCache(rec)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	var resp ReportResponse
	for _, r := range req.Results {
		switch t := c.tasks[r.Task]; {
		case t != nil && !fits(t, &r.Record):
			c.logger().Warn("fabric report does not fit its task, dropped",
				"worker", req.Worker, "task", r.Task,
				"want", t.pt, "got", r.Record.Point, "key", r.Record.Key)
		case t != nil && c.completeLocked(t, r.Record):
			resp.Accepted++
			c.stats.Accepted++
		default:
			resp.Duplicates++
			c.stats.Duplicates++
		}
	}
	if l := c.leases[req.Lease]; l != nil {
		if l.worker == req.Worker {
			l.deadline = now.Add(c.leaseTTL())
		}
		c.pruneLeaseLocked(req.Lease, l)
	}
	return resp, nil
}

// fits reports whether rec may complete t: it carries t's point and, unless
// it failed, a key of the cache's shape (checked: re-deriving it would
// compile the kernel on the coordinator).
func fits(t *task, rec *sweep.Record) bool {
	return rec.Point == t.pt && (rec.Err != "" || sweep.ValidKey(rec.Key))
}

// mergeIntoCache stores a successful record under its content key. It must
// run before the record's task completes and never under the scheduler lock.
// A failed Put is logged and the record completes regardless: the sweep's
// result is still correct, only a later restart would re-simulate the point.
func (c *Coordinator) mergeIntoCache(rec *sweep.Record) {
	if rec.Err != "" {
		return
	}
	if c.beforePut != nil {
		c.beforePut()
	}
	if err := c.Cache.Put(rec.Key, &rec.Metrics); err != nil {
		c.logger().Warn("fabric cache merge failed", "key", rec.Key, "error", err)
	}
}

// completeLocked retires t and lands rec at its grid index in the run's
// stream, reporting whether rec was the first record for that point. A
// task completed while re-queued leaves the queue, so the queue only ever
// holds undone tasks.
func (c *Coordinator) completeLocked(t *task, rec sweep.Record) bool {
	delete(c.tasks, t.id)
	if t.queued {
		t.queued = false
		c.queued--
		if i := slices.Index(c.requeued, t); i >= 0 {
			c.requeued = slices.Delete(c.requeued, i, i+1)
		} else if f := c.fronts[t.pt.Front()]; f != nil {
			f.tasks = slices.DeleteFunc(f.tasks, func(p *task) bool { return p == t })
			c.forgetEmptyLocked(f)
		}
	}
	return t.out.Complete(t.idx, rec)
}

// enqueueLocked queues t behind the pending points of its front end.
func (c *Coordinator) enqueueLocked(t *task) {
	k := t.pt.Front()
	f := c.fronts[k]
	if f == nil {
		f = &front{key: k}
		c.fronts[k] = f
		c.queue = append(c.queue, f)
	}
	f.tasks = append(f.tasks, t)
	t.queued = true
	c.queued++
}

// grantLocked picks the points of a lease for worker id, as Lease describes,
// and makes w the holder of the last one's front end, unless the lease is
// re-queued points alone and w's own front end still has queued points.
func (c *Coordinator) grantLocked(id string, w *workerInfo, now time.Time) []*task {
	var out []*task
	requeuedOnly := len(c.requeued) > 0
	if requeuedOnly {
		out = c.takeRequeuedLocked(c.batchSize(), out)
	} else if c.queued > 0 {
		live := 0
		var held []sweep.Front
		for wid, o := range c.workers {
			if !c.alive(o, now) {
				continue
			}
			live++
			if wid != id {
				held = append(held, o.front)
			}
		}
		share := min(c.batchSize(), (c.queued+2*live-1)/(2*live))
		if f := c.fronts[w.front]; f != nil {
			out = c.takeLocked(f, share, out)
		}
		for _, f := range c.queue {
			room := share - len(out)
			if room == 0 {
				break
			}
			if len(f.tasks) == 0 || slices.Contains(held, f.key) {
				continue
			}
			if len(f.tasks) > room && len(out) > 0 {
				break
			}
			out = c.takeLocked(f, room, out)
		}
		if len(out) == 0 {
			var most *front
			for _, f := range c.queue {
				if most == nil || len(f.tasks) > len(most.tasks) {
					most = f
				}
			}
			out = c.takeLocked(most, share, out)
		}
		c.trimLocked()
	}
	// Handing the hold over to the re-queued points' front end would leave
	// the queued points of w's own unheld, and another worker would build
	// that front end too.
	if len(out) > 0 && (!requeuedOnly || c.fronts[w.front] == nil) {
		w.front = out[len(out)-1].pt.Front()
	}
	return out
}

// popLocked takes up to max tasks off the front of the queue: re-queued
// points first, then front ends in queue order.
func (c *Coordinator) popLocked(max int) []*task {
	out := c.takeRequeuedLocked(max, nil)
	for _, f := range c.queue {
		if len(out) == max {
			break
		}
		out = c.takeLocked(f, max-len(out), out)
	}
	c.trimLocked()
	return out
}

// takeRequeuedLocked appends up to max re-queued points to out.
func (c *Coordinator) takeRequeuedLocked(max int, out []*task) []*task {
	n := min(max, len(c.requeued))
	out = c.dequeueLocked(out, c.requeued[:n])
	c.requeued = c.requeued[n:]
	return out
}

// takeLocked appends up to max of f's points to out, in grid order.
func (c *Coordinator) takeLocked(f *front, max int, out []*task) []*task {
	n := min(max, len(f.tasks))
	out = c.dequeueLocked(out, f.tasks[:n])
	f.tasks = f.tasks[n:]
	c.forgetEmptyLocked(f)
	return out
}

// dequeueLocked appends ts to out as no longer queued.
func (c *Coordinator) dequeueLocked(out, ts []*task) []*task {
	for _, t := range ts {
		t.queued = false
	}
	c.queued -= len(ts)
	return append(out, ts...)
}

// forgetEmptyLocked drops f from the map once it has nothing pending; it
// stays in queue until trimLocked reaches it.
func (c *Coordinator) forgetEmptyLocked(f *front) {
	if len(f.tasks) == 0 && c.fronts[f.key] == f {
		f.tasks = nil
		delete(c.fronts, f.key)
	}
}

// trimLocked drops the empty front ends at the head of the queue.
func (c *Coordinator) trimLocked() {
	for len(c.queue) > 0 && len(c.queue[0].tasks) == 0 {
		c.queue[0] = nil
		c.queue = c.queue[1:]
	}
}

// expireLocked re-queues the unfinished points of every lease past its
// deadline (ahead of every front end: stolen work is the oldest, emit order
// is waiting on it) and garbage-collects leases whose points all completed.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if c.pruneLeaseLocked(id, l) || !now.After(l.deadline) {
			continue
		}
		requeue := make([]*task, 0, len(l.tasks))
		for _, t := range l.tasks {
			if !t.queued {
				t.queued = true
				requeue = append(requeue, t)
			}
		}
		c.requeued = append(requeue, c.requeued...)
		c.queued += len(requeue)
		c.stats.Expired++
		delete(c.leases, id)
		c.logger().Info("fabric lease expired, points re-queued",
			"lease", id, "worker", l.worker, "points", len(requeue))
	}
}

// pruneLeaseLocked drops completed tasks from a lease, deleting it once
// empty so a fully-reported batch stops counting as leased, and reports
// whether it deleted it.
func (c *Coordinator) pruneLeaseLocked(id string, l *lease) bool {
	l.tasks = slices.DeleteFunc(l.tasks, (*task).done)
	if len(l.tasks) == 0 {
		delete(c.leases, id)
		return true
	}
	return false
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Workers = len(c.workers)
	for _, w := range c.workers {
		if c.alive(w, now) {
			s.LiveWorkers++
		}
	}
	s.Pending = c.queued
	for _, l := range c.leases {
		for _, t := range l.tasks {
			if !t.done() {
				s.Leased++
			}
		}
	}
	return s
}

// Run measures every point of the grid, like sweep.Engine.Run and with the
// same contract: sweep.RunGrid with the coordinator's Fill.
func (c *Coordinator) Run(spec *sweep.Spec, emit func(sweep.Record)) ([]sweep.Record, error) {
	return sweep.RunGrid(spec, c.Fill, emit)
}

// Fill lands a record in out for every point, like sweep.Engine.Fill. With no
// workers registered it is the local engine's Fill — the exact
// single-process path. Otherwise the points are queued for lease and Fill
// runs the lease watchdog until out is complete: every tick it expires stale
// leases between worker polls and, while no worker has contacted the
// coordinator within the liveness window and points are still pending,
// drains them on the local engine batch after batch, re-checking liveness
// (and out) between batches so a fleet that comes back gets the rest.
func (c *Coordinator) Fill(pts []sweep.Point, out *sweep.Stream) {
	c.mu.Lock()
	c.initLocked()
	if len(c.workers) == 0 || len(pts) == 0 {
		c.stats.LocalRuns++
		c.mu.Unlock()
		c.Eng.Fill(pts, out)
		return
	}
	for i, pt := range pts {
		c.seq++
		t := &task{id: fmt.Sprintf("t%d", c.seq), pt: pt, out: out, idx: i}
		c.tasks[t.id] = t
		c.enqueueLocked(t)
	}
	c.mu.Unlock()

	tk := time.NewTicker(max(c.leaseTTL()/4, 5*time.Millisecond))
	defer tk.Stop()
	for {
		_, wake := out.Next(0)
		if wake == nil {
			return
		}
		select {
		case <-wake:
			continue
		case <-tk.C:
		}
		for c.drainQuiet() {
			if _, wake := out.Next(0); wake == nil {
				return
			}
		}
	}
}

// drainQuiet expires stale leases and, when the fleet is quiet, measures one
// batch of pending points through the engine's fan-out (honouring
// Eng.Workers), reporting whether it measured anything. Completion goes
// through the same first-write-wins path as worker reports, merged into the
// cache before it is visible, so a worker racing back to life stays harmless.
func (c *Coordinator) drainQuiet() bool {
	now := c.clock()
	c.mu.Lock()
	c.expireLocked(now)
	live := false
	for _, w := range c.workers {
		if c.alive(w, now) {
			live = true
			break
		}
	}
	var batch []*task
	if !live {
		batch = c.popLocked(c.batchSize())
		c.stats.LocalPoints += len(batch)
	}
	c.mu.Unlock()
	if len(batch) == 0 {
		return false
	}
	c.logger().Info("fabric fleet quiet, draining locally", "points", len(batch))
	pts := make([]sweep.Point, len(batch))
	for i, t := range batch {
		pts[i] = t.pt
	}
	c.Eng.MeasureEach(pts, func(i int, rec sweep.Record) {
		// Eng.Measure has made its best-effort write to the engine's own
		// store; only a split configuration needs the merge.
		if c.Cache != c.Eng.Cache {
			c.mergeIntoCache(&rec)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if t := c.tasks[batch[i].id]; t != nil && c.completeLocked(t, rec) {
			c.stats.Accepted++
		} else {
			c.stats.Duplicates++
		}
	})
	return true
}
