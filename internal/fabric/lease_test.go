package fabric

// The lease policy: grants follow front ends and shrink as the queue drains.
// One test drives Lease and Report directly on the injected clock and checks
// every grant against the rule; one runs a real two-worker fleet and counts
// the front ends its engines built.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sweep"
)

// policyGrid has six front ends of three points each: larger than the share
// once the queue runs short, so grants split front ends and steal them.
func policyGrid() *sweep.Spec {
	return &sweep.Spec{
		Kernels: []int{2, 10},
		Sizes:   []int{8, 12, 16},
		Cores:   []int{1, 2, 3},
		Seed:    1,
	}
}

// leaseCounts tallies what a schedule of grants exercised.
type leaseCounts struct {
	splits   int // grants that left part of a front end they took from queued
	steals   int // grants from the front end the other worker holds
	regrants int // grants of an expired lease's points
}

// TestLeasesFollowFrontEnds has two workers take turns leasing policyGrid and
// reporting at once, except for the third grant, which is abandoned and
// expires before the grant at step expire. It keeps its own copy of what is
// unleased and checks every grant:
//   - the expired points are re-granted first, alone and in order;
//   - otherwise a grant holds 1..s points, s = min(Batch, ⌈unleased/4⌉);
//   - a worker whose front end still has points unleased gets those first;
//   - a grant of several front ends takes all but its first whole;
//   - no point is granted while another lease holds it;
//   - the other worker's front end is taken only when no unheld front end
//     has points left.
//
// After each grant the coordinator's record of the front end the worker holds
// must be the test's: the grant's last, except that a re-grant leaves the
// worker holding its own front end while that has points unleased. A front
// end granted to both workers must have reached the second by a steal or by
// the re-grant.
//
// Each run must finish with every point. Between them the two schedules
// split a front end and steal one.
func TestLeasesFollowFrontEnds(t *testing.T) {
	var total leaseCounts
	for _, expire := range []int{6, 7} {
		t.Run(fmt.Sprintf("expire at step %d", expire), func(t *testing.T) {
			n := checkLeases(t, expire)
			if n.regrants != 1 {
				t.Errorf("re-granted %d expired leases, want 1", n.regrants)
			}
			total.splits += n.splits
			total.steals += n.steals
		})
	}
	// Neither schedule leaves an earlier front end unheld while a worker's
	// own has points: TestLeaseKeepsOwnFrontAheadOfADeadWorkers makes one.
	if total.splits == 0 || total.steals == 0 {
		t.Errorf("grants split %d front ends and stole %d; want each at least once", total.splits, total.steals)
	}
}

// TestLeaseKeepsOwnFrontAheadOfADeadWorkers: a worker that stops polling
// loses its lease, and with it the hold on its front end. The live worker is
// re-granted the expired points, still holds its own front end, and its next
// grant takes that front end's last point first, ahead of the dead worker's
// earlier one.
func TestLeaseKeepsOwnFrontAheadOfADeadWorkers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	c := &Coordinator{
		Eng: &sweep.Engine{}, LeaseTTL: time.Minute, Batch: 2,
		Log: quietLog(), now: clk.Now,
	}
	a, b := c.Register("a").Worker, c.Register("b").Worker
	pts, err := policyGrid().Points()
	if err != nil {
		t.Fatal(err)
	}
	h := startRun(c.Run, policyGrid())
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Pending < len(pts); {
		if time.Now().After(deadline) {
			t.Fatal("run never queued its grid")
		}
		time.Sleep(time.Millisecond)
	}
	lease := func(w string) LeaseResponse {
		t.Helper()
		l, err := c.Lease(w)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	fronts := func(l LeaseResponse) []sweep.Front {
		var ks []sweep.Front
		for _, lp := range l.Points {
			ks = append(ks, lp.Point.Front())
		}
		return ks
	}
	first, second := pts[0].Front(), pts[3].Front() // policyGrid's first two front ends
	if got := fronts(lease(a)); !slices.Equal(got, []sweep.Front{first, first}) {
		t.Fatalf("a's grant: %v, want two points of %v", got, first)
	}
	check := func(what string, want ...sweep.Front) {
		t.Helper()
		l := lease(b)
		if got := fronts(l); !slices.Equal(got, want) {
			t.Fatalf("b's %s: %v, want %v", what, got, want)
		}
		if _, err := c.Report(measureReport(c.Eng, b, l)); err != nil {
			t.Fatal(err)
		}
	}
	check("grant", second, second)
	clk.Advance(2*time.Minute + time.Second) // a's lease expires, and a is no longer alive
	check("re-grant of a's points", first, first)
	check("next grant: its own front end's last point, then the dead worker's", second, first)
	drainRun(t, c, c.Eng, b, h)
}

func checkLeases(t *testing.T, expire int) leaseCounts {
	const batch, abandon = 4, 2
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	eng := &sweep.Engine{}
	c := &Coordinator{
		Eng: eng, LeaseTTL: time.Minute, Batch: batch,
		Log: quietLog(), now: clk.Now,
	}
	ws := []string{c.Register("a").Worker, c.Register("b").Worker}
	pts, err := policyGrid().Points()
	if err != nil {
		t.Fatal(err)
	}
	h := startRun(c.Run, policyGrid())
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Pending < len(pts) {
		if time.Now().After(deadline) {
			t.Fatal("run never queued its grid")
		}
		time.Sleep(time.Millisecond)
	}

	unleased := make(map[sweep.Point]bool, len(pts))
	for _, p := range pts {
		unleased[p] = true
	}
	holds := map[string]sweep.Front{}
	builders := map[sweep.Front]map[string]bool{} // who was granted a front end's points
	shared := map[sweep.Front]bool{}              // front ends a steal or the re-grant handed to a second worker
	var abandoned LeaseResponse
	var n leaseCounts
	for step := 0; ; step++ {
		w, other := ws[step%2], ws[(step+1)%2]
		if step == expire {
			// Past the abandoned lease's deadline, within the workers'
			// liveness: its points re-queue on the next poll.
			clk.Advance(time.Minute + time.Second)
			for _, lp := range abandoned.Points {
				unleased[lp.Point] = true
			}
		}
		share := min(batch, (len(unleased)+3)/4)
		own, held := holds[w], holds[other]
		before := make(map[sweep.Front]int)
		for p := range unleased {
			before[p.Front()]++
		}
		unheldLeft := false
		for k := range before {
			unheldLeft = unheldLeft || k != held && k != own
		}

		l, err := c.Lease(w)
		if err != nil {
			t.Fatalf("step %d: lease: %v", step, err)
		}
		if len(l.Points) == 0 {
			if len(unleased) != 0 || step <= expire {
				t.Fatalf("step %d: empty grant with %d points unleased", step, len(unleased))
			}
			break
		}
		for _, lp := range l.Points {
			if !unleased[lp.Point] {
				t.Fatalf("step %d: %v granted while another lease holds it", step, lp.Point)
			}
			delete(unleased, lp.Point)
			k := lp.Point.Front()
			if builders[k] == nil {
				builders[k] = map[string]bool{}
			}
			builders[k][w] = true
		}
		// The worker now holds the grant's last front end, unless the grant
		// is the re-queued points alone and its own front end has points left.
		ownLeft := false
		for p := range unleased {
			ownLeft = ownLeft || p.Front() == own
		}
		if step != expire || !ownLeft {
			holds[w] = l.Points[len(l.Points)-1].Point.Front()
		}
		c.mu.Lock()
		hold := c.workers[w].front
		c.mu.Unlock()
		if hold != holds[w] {
			t.Errorf("step %d: the coordinator has the worker holding %v, want %v", step, hold, holds[w])
		}
		t.Logf("step %d: %s granted %v", step, w, l.Points)

		if step == expire {
			if !slices.Equal(taskIDs(l), taskIDs(abandoned)) {
				t.Fatalf("step %d: grant %v, want the expired lease's %v first and alone",
					step, taskIDs(l), taskIDs(abandoned))
			}
			n.regrants++
			for _, lp := range l.Points {
				shared[lp.Point.Front()] = true
			}
		} else {
			if len(l.Points) > share {
				t.Errorf("step %d: %d points granted, share is %d", step, len(l.Points), share)
			}
			var fronts []sweep.Front // in grant order
			count := map[sweep.Front]int{}
			for _, lp := range l.Points {
				k := lp.Point.Front()
				if count[k] == 0 {
					fronts = append(fronts, k)
				}
				count[k]++
			}
			if before[own] > 0 && fronts[0] != own {
				t.Errorf("step %d: worker's front end has %d points unleased, grant starts elsewhere", step, before[own])
			}
			for i, k := range fronts {
				if i > 0 && count[k] != before[k] {
					t.Errorf("step %d: front end %d of the grant is split (%d of %d points)", step, i, count[k], before[k])
				}
				if count[k] < before[k] && k != own {
					n.splits++
				}
				if k == held && k != own {
					n.steals++
					shared[k] = true
					if before[own] > 0 || unheldLeft {
						t.Errorf("step %d: took the other worker's front end while others were left", step)
					}
				}
			}
		}

		if step == abandon {
			abandoned = l
			continue
		}
		if _, err := c.Report(measureReport(eng, w, l)); err != nil {
			t.Fatalf("step %d: report: %v", step, err)
		}
	}

	for k, ws := range builders {
		if len(ws) > 1 && !shared[k] {
			t.Errorf("front end %v was granted to both workers, neither by a steal nor by the re-grant", k)
		}
	}

	recs, _, err := h.wait(t)
	mustOK(t, recs, err)
	if len(recs) != len(pts) {
		t.Errorf("run returned %d records, want %d", len(recs), len(pts))
	}
	return n
}

// TestFleetCompilesEachFrontEndOnce: a two-worker fleet on grid() builds
// each front end once, plus at most the one a steal shares at the end of the
// run.
func TestFleetCompilesEachFrontEndOnce(t *testing.T) {
	coordEng := &sweep.Engine{Cache: newCache(t, t.TempDir())}
	c := &Coordinator{
		Eng: coordEng, Cache: coordEng.Cache,
		LeaseTTL: 5 * time.Second, Log: quietLog(),
	}
	ts := newCoordinator(t, c)
	w1 := startWorker(t, ts.URL, "w1", &sweep.Engine{Cache: newCache(t, t.TempDir())}, nil)
	w2 := startWorker(t, ts.URL, "w2", &sweep.Engine{Cache: newCache(t, t.TempDir())}, nil)
	waitWorkers(t, c, 2)

	recs, _, err := runJSONL(t, c.Run, grid())
	mustOK(t, recs, err)
	fronts := map[sweep.Front]bool{}
	for _, r := range recs {
		fronts[r.Point.Front()] = true
	}
	built := w1.eng.Stats().FrontBuilt + w2.eng.Stats().FrontBuilt
	if built > len(fronts)+1 {
		t.Errorf("the fleet built %d front ends for the grid's %d", built, len(fronts))
	}
	if st := c.Stats(); st.Accepted != gridSize || st.LocalPoints != 0 {
		t.Errorf("coordinator stats %+v, want %d accepted and none drained locally", st, gridSize)
	}
}
