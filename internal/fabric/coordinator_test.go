package fabric

// Protocol unit tests on an injected clock: lease expiry and re-grant order,
// first-write-wins completion, duplicate counting, unknown-worker rejection
// and point-mismatch rejection — no real timers, no HTTP, no sleeps beyond
// polling for the asynchronous Run to enqueue its grid.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

// fakeClock is a mutable clock handed to Coordinator.now. Advance moves
// every deadline decision deterministically; the watchdog's real-time ticker
// (LeaseTTL/4 = 15s with the minute-long TTL used here) never fires within a
// test, so the injected clock is the only time source that matters.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newProtocolRig builds a coordinator on a fake clock with one registered
// worker and a background Run over the quick grid, returning everything a
// protocol test needs. LeaseTTL is one minute: expiry happens only when the
// test advances the clock. The cache sits two directories below the test's
// own temporary directory, so a key that climbs out of it stays inside that.
func newProtocolRig(t *testing.T) (*Coordinator, *fakeClock, *sweep.Engine, string, *runHandle) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	eng := &sweep.Engine{Cache: newCache(t, filepath.Join(t.TempDir(), "coord", "cache"))}
	c := &Coordinator{
		Eng: eng, Cache: eng.Cache,
		LeaseTTL: time.Minute, Batch: 4,
		Log: quietLog(), now: clk.Now,
	}
	w := c.Register("prot").Worker
	h := startRun(c.Run, grid())
	return c, clk, eng, w, h
}

// awaitLease polls until the asynchronous Run has queued points and a lease
// is granted.
func awaitLease(t *testing.T, c *Coordinator, worker string) LeaseResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Lease(worker)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if len(resp.Points) > 0 {
			return resp
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no lease granted within 10s")
	return LeaseResponse{}
}

// measureReport measures a granted lease on eng and builds the report.
func measureReport(eng *sweep.Engine, worker string, l LeaseResponse) ReportRequest {
	req := ReportRequest{Worker: worker, Lease: l.Lease}
	for _, lp := range l.Points {
		req.Results = append(req.Results, ReportResult{Task: lp.Task, Record: eng.Measure(lp.Point)})
	}
	return req
}

// drainRun lease-measure-reports until the queue is empty and the run
// resolves.
func drainRun(t *testing.T, c *Coordinator, eng *sweep.Engine, worker string, h *runHandle) []sweep.Record {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Lease(worker)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if len(resp.Points) == 0 {
			select {
			case res := <-h.ch:
				mustOK(t, res.recs, res.err)
				return res.recs
			case <-time.After(10 * time.Millisecond):
				continue
			}
		}
		if _, err := c.Report(measureReport(eng, worker, resp)); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	t.Fatalf("run never drained")
	return nil
}

func taskIDs(l LeaseResponse) []string {
	ids := make([]string, len(l.Points))
	for i, p := range l.Points {
		ids[i] = p.Task
	}
	return ids
}

func TestExpiredLeaseReGrantsSameTasksInOrder(t *testing.T) {
	c, clk, eng, w, h := newProtocolRig(t)

	// The first lease is more than one point (the rig's front ends are two
	// points each) and at most Batch: the re-grant below has a multi-point
	// order to keep.
	first := awaitLease(t, c, w)
	if n := len(first.Points); n < 2 || n > c.Batch {
		t.Fatalf("first lease granted %d points, want 2..%d", n, c.Batch)
	}
	// Within the TTL the batch stays leased: a second poll gets more of the
	// grid, never the in-flight tasks.
	second := awaitLease(t, c, w)
	for _, id := range taskIDs(second) {
		for _, held := range taskIDs(first) {
			if id == held {
				t.Fatalf("task %s leased twice while its lease was live", id)
			}
		}
	}

	// Land the second batch now, so exactly one lease (the first) is
	// outstanding when the clock jumps: which of several simultaneously
	// expired leases re-queues first is unspecified (map order).
	if _, err := c.Report(measureReport(eng, w, second)); err != nil {
		t.Fatalf("report: %v", err)
	}

	// Past the TTL the first batch re-queues — at the front, in its original
	// order, with exactly one expiry counted.
	clk.Advance(time.Minute + time.Second)
	third, err := c.Lease(w)
	if err != nil {
		t.Fatalf("lease after expiry: %v", err)
	}
	got, want := taskIDs(third), taskIDs(first)
	if len(got) != len(want) {
		t.Fatalf("re-grant has %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("re-grant task[%d] = %s, want %s (stolen work must keep grid order)", i, got[i], want[i])
		}
	}
	if st := c.Stats(); st.Expired != 1 {
		t.Errorf("expired %d leases, want exactly the abandoned first one", st.Expired)
	}

	// Report the re-granted batch and let the run finish clean.
	if _, err := c.Report(measureReport(eng, w, third)); err != nil {
		t.Fatalf("report: %v", err)
	}
	drainRun(t, c, eng, w, h)
}

func TestLateReportAfterReLeaseIsFirstWriteWins(t *testing.T) {
	c, clk, eng, w, h := newProtocolRig(t)
	victim := awaitLease(t, c, w)
	victimReport := measureReport(eng, w, victim)

	// The victim's lease expires; a rescuer re-leases the same tasks and
	// reports first.
	clk.Advance(time.Minute + time.Second)
	rescuer := c.Register("rescue").Worker
	release, err := c.Lease(rescuer)
	if err != nil {
		t.Fatalf("re-lease: %v", err)
	}
	resp, err := c.Report(measureReport(eng, rescuer, release))
	if err != nil {
		t.Fatalf("rescuer report: %v", err)
	}
	if resp.Accepted != len(release.Points) || resp.Duplicates != 0 {
		t.Fatalf("rescuer report = %+v, want %d accepted", resp, len(release.Points))
	}

	// The victim limps back with its stale lease: every result is a
	// duplicate, nothing lands twice.
	late, err := c.Report(victimReport)
	if err != nil {
		t.Fatalf("late report: %v", err)
	}
	if late.Accepted != 0 || late.Duplicates != len(victimReport.Results) {
		t.Errorf("late report = %+v, want all %d duplicates", late, len(victimReport.Results))
	}
	// And re-sending the rescuer's own report is just as idempotent.
	again, err := c.Report(measureReport(eng, rescuer, release))
	if err != nil {
		t.Fatalf("replayed report: %v", err)
	}
	if again.Accepted != 0 || again.Duplicates != len(release.Points) {
		t.Errorf("replayed report = %+v, want all duplicates", again)
	}

	recs := drainRun(t, c, eng, w, h)
	if len(recs) != gridSize {
		t.Fatalf("run returned %d records, want %d", len(recs), gridSize)
	}
	if st := c.Stats(); st.Accepted != gridSize {
		t.Errorf("accepted %d results for an %d-point grid", st.Accepted, gridSize)
	}
}

func TestUnknownWorkerIsRejected(t *testing.T) {
	c := &Coordinator{Eng: &sweep.Engine{}, Log: quietLog()}
	if _, err := c.Lease("ghost"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("lease from unregistered worker: err = %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Report(ReportRequest{Worker: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("report from unregistered worker: err = %v, want ErrUnknownWorker", err)
	}
	// A coordinator restart forgets the fleet: IDs from the previous
	// incarnation are unknown too, which is what pushes workers to
	// re-register.
	old := c.Register("pre-restart").Worker
	fresh := &Coordinator{Eng: &sweep.Engine{}, Log: quietLog()}
	if _, err := fresh.Lease(old); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("lease with pre-restart ID: err = %v, want ErrUnknownWorker", err)
	}
}

func TestMismatchedPointReportIsRejectedNotCompleted(t *testing.T) {
	c, _, eng, w, h := newProtocolRig(t)
	l := awaitLease(t, c, w)

	// A confused worker reports the right task ID carrying the wrong point:
	// the result must be dropped without completing the task.
	bogus := eng.Measure(l.Points[0].Point)
	bogus.Cores += 97
	resp, err := c.Report(ReportRequest{
		Worker: w, Lease: l.Lease,
		Results: []ReportResult{{Task: l.Points[0].Task, Record: bogus}},
	})
	if err != nil {
		t.Fatalf("mismatched report: %v", err)
	}
	if resp.Accepted != 0 || resp.Duplicates != 0 {
		t.Errorf("mismatched report = %+v, want neither accepted nor duplicate", resp)
	}

	// The task is still open: the correct record for it is accepted.
	good, err := c.Report(ReportRequest{
		Worker: w, Lease: l.Lease,
		Results: []ReportResult{{Task: l.Points[0].Task, Record: eng.Measure(l.Points[0].Point)}},
	})
	if err != nil {
		t.Fatalf("correct report: %v", err)
	}
	if good.Accepted != 1 {
		t.Errorf("correct report after mismatch = %+v, want 1 accepted", good)
	}
	// Finish the rest of the batch and the run.
	rest := measureReport(eng, w, l)
	rest.Results = rest.Results[1:]
	if _, err := c.Report(rest); err != nil {
		t.Fatalf("report: %v", err)
	}
	recs := drainRun(t, c, eng, w, h)
	for _, r := range recs {
		if r.Cores >= 97 {
			t.Fatalf("bogus record landed in the grid: %+v", r.Point)
		}
	}
}

// TestReportedKeyCannotLeaveTheCache: a registered worker reports a leased
// point with the right record under the key "../../escaped". The merge joins
// the key onto the cache directory, so accepting it would write escaped.json
// two directories above the cache. The result is dropped like a point
// mismatch — nothing written, the task still open — and the honest record for
// it is accepted afterwards.
func TestReportedKeyCannotLeaveTheCache(t *testing.T) {
	c, _, eng, w, h := newProtocolRig(t)
	l := awaitLease(t, c, w)
	root := filepath.Dir(filepath.Dir(eng.Cache.Dir()))

	honest := eng.Measure(l.Points[0].Point)
	hostile := honest
	hostile.Key = "../../escaped"
	resp, err := c.Report(ReportRequest{
		Worker: w, Lease: l.Lease,
		Results: []ReportResult{{Task: l.Points[0].Task, Record: hostile}},
	})
	if err != nil {
		t.Fatalf("hostile report: %v", err)
	}
	if resp.Accepted != 0 || resp.Duplicates != 0 {
		t.Errorf("hostile report = %+v, want neither accepted nor duplicate", resp)
	}
	if _, err := os.Stat(filepath.Join(root, "escaped.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a reported key wrote outside the cache directory (stat: %v)", err)
	}

	good, err := c.Report(ReportRequest{
		Worker: w, Lease: l.Lease,
		Results: []ReportResult{{Task: l.Points[0].Task, Record: honest}},
	})
	if err != nil || good.Accepted != 1 {
		t.Fatalf("honest report after the hostile one = %+v, %v; want 1 accepted", good, err)
	}
	rest := measureReport(eng, w, l)
	rest.Results = rest.Results[1:]
	if _, err := c.Report(rest); err != nil {
		t.Fatalf("report: %v", err)
	}
	drainRun(t, c, eng, w, h)
}

// TestReportOverBatchIsRefused: a lease holds at most Batch points, so a
// report of more results is malformed. It is refused whole with 400, before
// any of it is merged or counted.
func TestReportOverBatchIsRefused(t *testing.T) {
	c := &Coordinator{Eng: &sweep.Engine{}, Batch: 2, Log: quietLog()}
	ts := newCoordinator(t, c)
	w := c.Register("big").Worker
	for _, n := range []int{2, 3} {
		body, err := json.Marshal(ReportRequest{Worker: w, Results: make([]ReportResult, n)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+PathReport, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := map[int]int{2: http.StatusOK, 3: http.StatusBadRequest}[n]; resp.StatusCode != want {
			t.Errorf("report of %d results with Batch 2 = %d, want %d", n, resp.StatusCode, want)
		}
	}
	if st := c.Stats(); st.Reports != 1 || st.Duplicates != 2 {
		t.Errorf("stats %+v: want the refused report uncounted and the other's 2 results duplicates", st)
	}
}

// TestRecordIsDurableBeforeRunEmitsIt parks the coordinator's cache merge on
// the injected hook and checks the ordering the cold-restart invariant needs:
// while the first reported record's Put is parked its task is still
// incomplete and Run has emitted nothing, and every record Run does emit,
// over every lease of the grid, is already in the cache. The reporting worker
// measures without a cache, so the coordinator's merge is the only writer.
func TestRecordIsDurableBeforeRunEmitsIt(t *testing.T) {
	cache := newCache(t, t.TempDir())
	parked := make(chan struct{}, gridSize) // one send per merged record
	release := make(chan struct{})
	c := &Coordinator{
		Eng: &sweep.Engine{Cache: cache}, Cache: cache,
		LeaseTTL: time.Minute, Log: quietLog(),
		beforePut: func() { parked <- struct{}{}; <-release },
	}
	w := c.Register("prot").Worker
	emitted := make(chan sweep.Record, gridSize)
	ran := make(chan error, 1)
	go func() {
		_, err := c.Run(grid(), func(r sweep.Record) { emitted <- r })
		ran <- err
	}()
	measurer := &sweep.Engine{}
	l := awaitLease(t, c, w)
	reported := make(chan error, 1)
	go func() {
		_, err := c.Report(measureReport(measurer, w, l))
		reported <- err
	}()

	<-parked // Report is now inside its first Put
	c.mu.Lock()
	_, pending := c.tasks[l.Points[0].Task]
	c.mu.Unlock()
	if !pending {
		t.Error("task completed while its record's cache Put was still parked")
	}
	if n := len(emitted); n != 0 {
		t.Errorf("Run emitted %d record(s) while the first cache Put was still parked", n)
	}

	close(release)
	if err := <-reported; err != nil {
		t.Fatalf("report: %v", err)
	}
	// The rest of the grid, lease after lease, through the same merge.
	for {
		l, err := c.Lease(w)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if len(l.Points) == 0 {
			break
		}
		if _, err := c.Report(measureReport(measurer, w, l)); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	for i := 0; i < gridSize; i++ {
		r := <-emitted
		if _, ok := cache.Get(r.Key); !ok {
			t.Errorf("%s n=%d %s emitted but not in the cache", r.Name, r.N, r.Config())
		}
	}
	if err := <-ran; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestOversizedBodies: the protocol handlers cap their bodies at 16 MiB and
// say so — 413, not the 400 a silently truncated body used to parse into. A
// body just under the cap is still read in full and judged on its content.
func TestOversizedBodies(t *testing.T) {
	h := (&Coordinator{Eng: &sweep.Engine{}, Log: quietLog()}).Handler()
	const limit = 16 << 20
	bad := `{"nosuchfield":1}` // parsed in full, then refused as unknown
	for _, path := range []string{PathRegister, PathLease, PathReport} {
		for _, c := range []struct{ pad, want int }{
			{limit - len(bad), http.StatusBadRequest},
			{limit, http.StatusRequestEntityTooLarge},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(strings.Repeat(" ", c.pad)+bad)))
			var e struct{ Error string }
			if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || rec.Code != c.want || e.Error == "" {
				t.Errorf("POST %s with a %d-byte body = %d (error %q, %v), want %d with a message",
					path, c.pad+len(bad), rec.Code, e.Error, err, c.want)
			}
		}
	}
}

// TestTrailingData: a protocol body is one JSON value followed by white
// space at most. A second value or any other data after it is refused with
// 400 — and 413 once white space runs past the cap — before the handler
// acts; a body ending in a newline, as json.Encoder writes it, is accepted.
func TestTrailingData(t *testing.T) {
	c := &Coordinator{Eng: &sweep.Engine{}, Log: quietLog()}
	if w := c.Register("pre").Worker; w != "w1" {
		t.Fatalf("first worker registered as %q", w)
	}
	h := c.Handler()
	const limit = 16 << 20
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{PathRegister, `{"name":"a"}{"name":"b"}`, http.StatusBadRequest},
		{PathLease, `{"worker":"w1"} garbage`, http.StatusBadRequest},
		{PathReport, `{"worker":"w1"}]`, http.StatusBadRequest},
		{PathReport, `{"worker":"w1"}` + strings.Repeat(" ", limit), http.StatusRequestEntityTooLarge},
		{PathRegister, "{\"name\":\"a\"}\n", http.StatusOK},
		{PathLease, "{\"worker\":\"w1\"} \r\n\t", http.StatusOK},
		{PathReport, "{\"worker\":\"w1\"}\n", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		var e struct{ Error string }
		err := json.NewDecoder(rec.Body).Decode(&e)
		if rec.Code != tc.want || err != nil || (tc.want != http.StatusOK) != (e.Error != "") {
			t.Errorf("POST %s %.40q = %d (error %q, %v), want %d", tc.path, tc.body, rec.Code, e.Error, err, tc.want)
		}
	}
	if st := c.Stats(); st.Workers != 2 || st.Reports != 1 {
		t.Errorf("after the refusals the coordinator counts %d workers and %d reports, want 2 and 1 (the accepted bodies only)", st.Workers, st.Reports)
	}
}
