package fabric

// The fault-injection scenarios. Each proves one of the fabric's
// invariants, deterministically (kills and duplicates are triggered by the
// fault layer at exact protocol events, not timers):
//
//   - distributed JSONL is byte-identical to a single-process sweep over
//     the same grid and cache;
//   - a worker killed mid-batch costs only its in-flight points;
//   - duplicated result reports are idempotent;
//   - with a shared worker cache every point simulates at most once
//     fleet-wide, kills included;
//   - a cold coordinator restart re-serves the whole grid from cache;
//   - zero registered workers fall back to the exact local path, and a
//     fleet that dies silently is drained by the watchdog.

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

func TestDistributedSweepByteIdenticalToSequential(t *testing.T) {
	coordDir := t.TempDir()
	coordEng := &sweep.Engine{Cache: newCache(t, coordDir), Workers: 2}
	c := &Coordinator{
		Eng: coordEng, Cache: coordEng.Cache,
		LeaseTTL: 5 * time.Second, Batch: 2, Log: quietLog(),
	}
	ts := newCoordinator(t, c)
	w1 := startWorker(t, ts.URL, "w1", &sweep.Engine{Cache: newCache(t, t.TempDir())}, nil)
	w2 := startWorker(t, ts.URL, "w2", &sweep.Engine{Cache: newCache(t, t.TempDir())}, nil)
	waitWorkers(t, c, 2)

	recs, gotJSONL, err := runJSONL(t, c.Run, grid())
	mustOK(t, recs, err)
	if len(recs) != gridSize {
		t.Fatalf("got %d records, want %d", len(recs), gridSize)
	}

	wantJSONL, oracle := sequentialOracle(t, coordDir)
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("distributed JSONL differs from sequential oracle:\n got: %s\nwant: %s", gotJSONL, wantJSONL)
	}
	// The oracle must have served every point from the merged cache …
	if st := oracle.Stats(); st.Simulated != 0 || st.Hits != gridSize {
		t.Errorf("oracle stats %+v, want 0 simulated / %d hits (cache fully merged)", st, gridSize)
	}
	// … the coordinator's own engine must not have measured anything …
	if st := coordEng.Stats(); st.Points != 0 {
		t.Errorf("coordinator engine measured %d points locally, want 0", st.Points)
	}
	// … and the fleet must have simulated each point exactly once in total.
	sim := w1.eng.Stats().Simulated + w2.eng.Stats().Simulated
	if sim != gridSize {
		t.Errorf("fleet simulated %d points, want %d", sim, gridSize)
	}
	st := c.Stats()
	if st.Accepted != gridSize || st.LocalPoints != 0 || st.Duplicates != 0 {
		t.Errorf("coordinator stats %+v, want %d accepted, 0 local, 0 duplicates", st, gridSize)
	}
}

func TestZeroWorkersFallsBackToLocalRun(t *testing.T) {
	dir := t.TempDir()
	eng := &sweep.Engine{Cache: newCache(t, dir), Workers: 2}
	c := &Coordinator{Eng: eng, Cache: eng.Cache, Log: quietLog()}

	recs, gotJSONL, err := runJSONL(t, c.Run, grid())
	mustOK(t, recs, err)
	if st := c.Stats(); st.LocalRuns != 1 || st.Granted != 0 {
		t.Errorf("stats %+v, want exactly one local run and no leases", st)
	}
	if st := eng.Stats(); st.Simulated != gridSize {
		t.Errorf("local engine simulated %d, want %d", st.Simulated, gridSize)
	}
	// The local path is the single-process path: a sequential re-run over
	// the same cache reproduces the bytes.
	wantJSONL, _ := sequentialOracle(t, dir)
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("local-fallback JSONL differs from sequential oracle")
	}
}

func TestDuplicateReportsAreIdempotent(t *testing.T) {
	coordDir := t.TempDir()
	coordEng := &sweep.Engine{Cache: newCache(t, coordDir)}
	c := &Coordinator{
		Eng: coordEng, Cache: coordEng.Cache,
		LeaseTTL: 5 * time.Second, Batch: 2, Log: quietLog(),
	}
	ts := newCoordinator(t, c)
	// Both workers share one cache; every report RPC is delivered twice.
	sharedDir := t.TempDir()
	dupAll := &faultTransport{decide: func(req *http.Request) faultAction {
		if pathIs(req, PathReport) {
			return faultAction{dup: true}
		}
		return faultAction{}
	}}
	w1 := startWorker(t, ts.URL, "w1", &sweep.Engine{Cache: newCache(t, sharedDir)}, dupAll)
	w2 := startWorker(t, ts.URL, "w2", &sweep.Engine{Cache: newCache(t, sharedDir)}, dupAll)
	waitWorkers(t, c, 2)

	recs, gotJSONL, err := runJSONL(t, c.Run, grid())
	mustOK(t, recs, err)

	st := c.Stats()
	if st.Accepted != gridSize {
		t.Errorf("accepted %d results, want %d", st.Accepted, gridSize)
	}
	if st.Duplicates == 0 {
		t.Errorf("no duplicates counted although every report was delivered twice")
	}
	sim := w1.eng.Stats().Simulated + w2.eng.Stats().Simulated
	if sim != gridSize {
		t.Errorf("fleet simulated %d points, want %d (duplicates must not re-measure)", sim, gridSize)
	}
	wantJSONL, _ := sequentialOracle(t, coordDir)
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("JSONL under duplicated reports differs from sequential oracle")
	}
}

func TestKilledWorkerCostsOnlyItsInFlightPoints(t *testing.T) {
	coordDir := t.TempDir()
	coordEng := &sweep.Engine{Cache: newCache(t, coordDir)}
	const batch = 2
	c := &Coordinator{
		Eng: coordEng, Cache: coordEng.Cache,
		LeaseTTL: time.Second, Batch: batch, Log: quietLog(),
	}
	ts := newCoordinator(t, c)
	kill := newKillSwitch()
	// Private caches: a re-leased point really is re-simulated, so the
	// kill's cost is visible in the simulation counts. The victim runs
	// alone first so it deterministically holds a full batch when it dies;
	// the rescuer starts after the kill.
	w1 := startWorker(t, ts.URL, "w1", &sweep.Engine{Cache: newCache(t, t.TempDir())}, killOnFirstReport(kill))
	kill.arm(w1)
	waitWorkers(t, c, 1)
	h := startRun(c.Run, grid())
	kill.wait(t)
	w2 := startWorker(t, ts.URL, "w2", &sweep.Engine{Cache: newCache(t, t.TempDir())}, nil)

	recs, gotJSONL, err := h.wait(t)
	mustOK(t, recs, err)

	// w1 died with exactly one leased batch in flight; nothing it measured
	// was ever reported, so the survivor re-measures the whole grid and the
	// overhead of the kill is only w1's in-flight batch.
	if lost := w1.eng.Stats().Simulated; lost != batch {
		t.Errorf("killed worker simulated %d points, want its in-flight batch of %d", lost, batch)
	}
	if sim := w2.eng.Stats().Simulated; sim != gridSize {
		t.Errorf("surviving worker simulated %d points, want %d", sim, gridSize)
	}
	st := c.Stats()
	if st.Accepted != gridSize || st.Expired == 0 {
		t.Errorf("coordinator stats %+v, want %d accepted with at least one expired lease", st, gridSize)
	}
	if st.LocalPoints != 0 {
		t.Errorf("watchdog drained %d points locally although a worker survived", st.LocalPoints)
	}
	wantJSONL, _ := sequentialOracle(t, coordDir)
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("JSONL after worker kill differs from sequential oracle")
	}
}

// TestLeaseOutlivedByItsBatchIsRenewed leases a lone worker one point that
// takes longer to simulate than the lease lasts. The worker renews the lease
// while it measures, so the lease never expires, the watchdog never drains
// the point on the coordinator, and the point is simulated once.
func TestLeaseOutlivedByItsBatchIsRenewed(t *testing.T) {
	coordEng := &sweep.Engine{Cache: newCache(t, t.TempDir())}
	c := &Coordinator{
		Eng: coordEng, Cache: coordEng.Cache,
		LeaseTTL: 120 * time.Millisecond, Batch: 1, Log: quietLog(),
	}
	ts := newCoordinator(t, c)
	w := startWorker(t, ts.URL, "w1", &sweep.Engine{Cache: newCache(t, t.TempDir())}, nil)
	waitWorkers(t, c, 1)
	// allNearestNeighbors at n=96 on one core: about 0.2 s of simulation,
	// twenty times that under -race.
	spec := &sweep.Spec{Kernels: []int{9}, Sizes: []int{96}, Cores: []int{1}, Seed: 1}
	start := time.Now()
	recs, _, err := runJSONL(t, c.Run, spec)
	took := time.Since(start)
	mustOK(t, recs, err)
	if took <= c.LeaseTTL {
		t.Fatalf("the batch took %v, no longer than its %v lease: nothing to renew", took, c.LeaseTTL)
	}
	if st := c.Stats(); st.Expired != 0 || st.LocalPoints != 0 || st.Accepted != 1 || st.Duplicates != 0 || st.Reports < 2 {
		t.Errorf("coordinator stats %+v after a %v batch: want no expiry, the point accepted once, and a renewal report before it", st, took)
	}
	if sim := w.eng.Stats().Simulated + coordEng.Stats().Simulated; sim != 1 {
		t.Errorf("point simulated %d times, want once", sim)
	}
}

func TestSharedCacheSimulatesEveryPointAtMostOnceFleetWide(t *testing.T) {
	coordDir := t.TempDir()
	coordEng := &sweep.Engine{Cache: newCache(t, coordDir)}
	const batch = 2
	c := &Coordinator{
		Eng: coordEng, Cache: coordEng.Cache,
		LeaseTTL: time.Second, Batch: batch, Log: quietLog(),
	}
	ts := newCoordinator(t, c)
	kill := newKillSwitch()
	// One cache for the whole fleet: when the rescuer picks up the victim's
	// expired lease it must hit what the victim already simulated and
	// stored, so the kill costs zero extra simulations.
	sharedDir := t.TempDir()
	w1 := startWorker(t, ts.URL, "w1", &sweep.Engine{Cache: newCache(t, sharedDir)}, killOnFirstReport(kill))
	kill.arm(w1)
	waitWorkers(t, c, 1)
	h := startRun(c.Run, grid())
	kill.wait(t)
	w2 := startWorker(t, ts.URL, "w2", &sweep.Engine{Cache: newCache(t, sharedDir)}, nil)

	recs, gotJSONL, err := h.wait(t)
	mustOK(t, recs, err)

	sim := w1.eng.Stats().Simulated + w2.eng.Stats().Simulated
	if sim != gridSize {
		t.Errorf("fleet simulated %d points, want exactly %d (shared cache, kill included)", sim, gridSize)
	}
	if lost, hits := w1.eng.Stats().Simulated, w2.eng.Stats().Hits; lost != batch || hits < lost {
		t.Errorf("victim simulated %d (want %d) and survivor hit the cache %d times (want >= %d)",
			lost, batch, hits, lost)
	}
	wantJSONL, _ := sequentialOracle(t, coordDir)
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("JSONL with shared fleet cache differs from sequential oracle")
	}
}

func TestDroppedAndDelayedRPCsStillConverge(t *testing.T) {
	coordDir := t.TempDir()
	coordEng := &sweep.Engine{Cache: newCache(t, coordDir)}
	c := &Coordinator{
		Eng: coordEng, Cache: coordEng.Cache,
		LeaseTTL: time.Second, Batch: 2, Log: quietLog(),
	}
	ts := newCoordinator(t, c)
	// A deterministic lossy network: every 5th RPC vanishes, every 3rd is
	// held 5ms. Registration, leases and reports all take hits.
	var mu sync.Mutex
	n := 0
	lossy := func() *faultTransport {
		return &faultTransport{decide: func(req *http.Request) faultAction {
			mu.Lock()
			n++
			k := n
			mu.Unlock()
			switch {
			case k%5 == 0:
				return faultAction{drop: true}
			case k%3 == 0:
				return faultAction{delay: 5 * time.Millisecond}
			}
			return faultAction{}
		}}
	}
	sharedDir := t.TempDir()
	w1 := startWorker(t, ts.URL, "w1", &sweep.Engine{Cache: newCache(t, sharedDir)}, lossy())
	w2 := startWorker(t, ts.URL, "w2", &sweep.Engine{Cache: newCache(t, sharedDir)}, lossy())
	_, _ = w1, w2
	waitWorkers(t, c, 2)

	recs, gotJSONL, err := runJSONL(t, c.Run, grid())
	mustOK(t, recs, err)
	if st := c.Stats(); st.Accepted != gridSize {
		t.Errorf("accepted %d, want %d", st.Accepted, gridSize)
	}
	wantJSONL, _ := sequentialOracle(t, coordDir)
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("JSONL under drops and delays differs from sequential oracle")
	}
}

func TestColdCoordinatorRestartServesEverythingFromCache(t *testing.T) {
	coordDir := t.TempDir()
	coordEng := &sweep.Engine{Cache: newCache(t, coordDir)}
	c := &Coordinator{
		Eng: coordEng, Cache: coordEng.Cache,
		LeaseTTL: 5 * time.Second, Batch: 2, Log: quietLog(),
	}
	ts := newCoordinator(t, c)
	startWorker(t, ts.URL, "w1", &sweep.Engine{Cache: newCache(t, t.TempDir())}, nil)
	waitWorkers(t, c, 1)
	recs, firstJSONL, err := runJSONL(t, c.Run, grid())
	mustOK(t, recs, err)

	// "Restart": a brand-new coordinator process over the same cache
	// directory, no workers registered, no state carried over.
	coldEng := &sweep.Engine{Cache: newCache(t, coordDir), Workers: 2}
	cold := &Coordinator{Eng: coldEng, Cache: coldEng.Cache, Log: quietLog()}
	recs2, coldJSONL, err := runJSONL(t, cold.Run, grid())
	mustOK(t, recs2, err)

	if !bytes.Equal(firstJSONL, coldJSONL) {
		t.Errorf("cold-restart JSONL differs from the original distributed run")
	}
	if st := coldEng.Stats(); st.Simulated != 0 || st.Hits != gridSize {
		t.Errorf("cold restart stats %+v, want 0 simulated / %d cache hits", st, gridSize)
	}
}

func TestSilentFleetIsDrainedByWatchdog(t *testing.T) {
	dir := t.TempDir()
	eng := &sweep.Engine{Cache: newCache(t, dir), Workers: 2}
	c := &Coordinator{
		Eng: eng, Cache: eng.Cache,
		LeaseTTL: 100 * time.Millisecond, Batch: 4, Log: quietLog(),
	}
	// A worker registers and then never comes back — the fleet exists but
	// is silent, so the zero-worker fast path does not apply.
	c.Register("ghost")

	recs, _, err := runJSONL(t, c.Run, grid())
	mustOK(t, recs, err)
	st := c.Stats()
	if st.LocalPoints != gridSize {
		t.Errorf("watchdog drained %d points, want the whole grid (%d)", st.LocalPoints, gridSize)
	}
	if eng.Stats().Simulated != gridSize {
		t.Errorf("local engine simulated %d, want %d", eng.Stats().Simulated, gridSize)
	}
}

// TestQuietDrainMergesOnlyIntoASplitStore counts the coordinator's cache
// merges on the beforePut hook while a quiet fleet's grid drains locally: the
// engine has already stored each record when the coordinator shares its
// store, so there are none; a coordinator with a store of its own merges
// every drained point into it.
func TestQuietDrainMergesOnlyIntoASplitStore(t *testing.T) {
	for _, split := range []bool{false, true} {
		clk := &fakeClock{t: time.Unix(1_000_000, 0)}
		eng := &sweep.Engine{Cache: newCache(t, t.TempDir()), Workers: 2}
		store := eng.Cache
		if split {
			store = newCache(t, t.TempDir())
		}
		var merges atomic.Int64
		c := &Coordinator{
			Eng: eng, Cache: store,
			LeaseTTL: 100 * time.Millisecond, Log: quietLog(), now: clk.Now,
			beforePut: func() { merges.Add(1) },
		}
		c.Register("ghost")
		clk.Advance(time.Second)

		recs, _, err := runJSONL(t, c.Run, grid())
		mustOK(t, recs, err)
		want := int64(0)
		if split {
			want = gridSize
		}
		if st := c.Stats(); st.LocalPoints != gridSize || merges.Load() != want {
			t.Errorf("split=%v: %d points drained, %d merges; want %d and %d", split, st.LocalPoints, merges.Load(), gridSize, want)
		}
		for _, r := range recs {
			if _, ok := store.Get(r.Key); !ok {
				t.Errorf("split=%v: record %s missing from the coordinator's store", split, r.Point.Config())
			}
		}
	}
}

// TestSilentFleetDrainDoesNotWaitATickPerBatch: once the fleet is quiet the
// watchdog keeps popping batches instead of taking one per tick. With
// Batch=1 the 8-point grid is 8 batches; at one batch per tick (LeaseTTL/4 =
// 500ms) the drain would need 4s, so finishing inside 4 ticks proves the
// batches ran back to back. The fake clock only ages the ghost worker past
// the liveness window up front; the ticker itself runs on real time.
func TestSilentFleetDrainDoesNotWaitATickPerBatch(t *testing.T) {
	const ttl = 2 * time.Second
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	eng := &sweep.Engine{Cache: newCache(t, t.TempDir()), Workers: 2}
	c := &Coordinator{
		Eng: eng, Cache: eng.Cache,
		LeaseTTL: ttl, Batch: 1, Log: quietLog(), now: clk.Now,
	}
	c.Register("ghost")
	clk.Advance(2*ttl + time.Second)

	start := time.Now()
	recs, _, err := runJSONL(t, c.Run, grid())
	elapsed := time.Since(start)
	mustOK(t, recs, err)
	if st := c.Stats(); st.LocalPoints != gridSize || st.Accepted != gridSize || st.Granted != 0 {
		t.Errorf("stats %+v, want all %d points drained locally and none leased", st, gridSize)
	}
	if limit := 4 * (ttl / 4); elapsed >= limit {
		t.Errorf("drain of %d single-point batches took %v, want under %v (one batch per tick needs %v)",
			gridSize, elapsed, limit, gridSize*(ttl/4))
	}
}
