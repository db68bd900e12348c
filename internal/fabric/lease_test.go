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
	kept     int // grants that continued the worker's front end past an earlier unheld one
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
// Each run must finish with every point. Between them the two schedules
// split a front end, steal one, and continue a worker's front end while an
// earlier one is unheld (the re-grant at step 6 moves the worker that held
// it elsewhere).
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
			total.kept += n.kept
		})
	}
	if total.splits == 0 || total.steals == 0 || total.kept == 0 {
		t.Errorf("grants split %d front ends, stole %d and kept to one past an unheld one %d times; want each at least once",
			total.splits, total.steals, total.kept)
	}
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
	first := make(map[frontKey]int) // a front end's place in the queue
	for i, p := range pts {
		unleased[p] = true
		if _, ok := first[frontOf(p)]; !ok {
			first[frontOf(p)] = i
		}
	}
	holds := map[string]frontKey{}
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
		before := make(map[frontKey]int)
		for p := range unleased {
			before[frontOf(p)]++
		}
		unheldLeft, unheldEarlier := false, false
		for k := range before {
			if k != held && k != own {
				unheldLeft = true
				unheldEarlier = unheldEarlier || first[k] < first[own]
			}
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
		}
		holds[w] = frontOf(l.Points[len(l.Points)-1].Point)
		t.Logf("step %d: %s granted %v", step, w, l.Points)

		if step == expire {
			if !slices.Equal(taskIDs(l), taskIDs(abandoned)) {
				t.Fatalf("step %d: grant %v, want the expired lease's %v first and alone",
					step, taskIDs(l), taskIDs(abandoned))
			}
			n.regrants++
		} else {
			if len(l.Points) > share {
				t.Errorf("step %d: %d points granted, share is %d", step, len(l.Points), share)
			}
			var fronts []frontKey // in grant order
			count := map[frontKey]int{}
			for _, lp := range l.Points {
				k := frontOf(lp.Point)
				if count[k] == 0 {
					fronts = append(fronts, k)
				}
				count[k]++
			}
			if before[own] > 0 {
				if fronts[0] != own {
					t.Errorf("step %d: worker's front end has %d points unleased, grant starts elsewhere", step, before[own])
				} else if unheldEarlier {
					n.kept++
				}
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
	fronts := map[frontKey]bool{}
	for _, r := range recs {
		fronts[frontOf(r.Point)] = true
	}
	built := w1.eng.Stats().FrontBuilt + w2.eng.Stats().FrontBuilt
	if built > len(fronts)+1 {
		t.Errorf("the fleet built %d front ends for the grid's %d", built, len(fronts))
	}
	if st := c.Stats(); st.Accepted != gridSize || st.LocalPoints != 0 {
		t.Errorf("coordinator stats %+v, want %d accepted and none drained locally", st, gridSize)
	}
}
