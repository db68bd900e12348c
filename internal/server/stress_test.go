package server

// Concurrency stress on the job manager — submissions, pollers and eviction
// racing a drain — plus the Runner seam the fabric coordinator plugs into.
// The stress test exists to keep the manager honest under -race: an earlier
// revision used a sync.WaitGroup whose Add could race Drain's Wait on a zero
// counter (documented WaitGroup misuse); the inflight-counter rewrite is
// pinned here.

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

func TestManagerStressSubmitPollEvictDrain(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := &sweep.Engine{Cache: cache}
	const history = 8
	m := NewManager(eng, quietLog(), history, 4)

	// One normalised point, submitted over and over: the cache makes the
	// jobs cheap, so the test exercises scheduling, not simulation.
	spec := &sweep.Spec{Kernels: []int{2}, Sizes: []int{8}, Cores: []int{1}, Seed: 1}
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]

	// Pollers hammer the read surface while submissions run, checking the
	// one ordering invariant Jobs() promises: newest first, i.e. strictly
	// decreasing submission sequence.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 4; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := math.MaxInt
				for _, st := range m.Jobs() {
					seq, err := strconv.Atoi(strings.TrimPrefix(st.ID, "run-"))
					if err != nil {
						t.Errorf("unparseable job ID %q", st.ID)
						return
					}
					if seq >= last {
						t.Errorf("Jobs() not newest-first: seq %d after %d", seq, last)
						return
					}
					last = seq
					if j, ok := m.Get(st.ID); ok {
						_ = j.status()
					}
				}
				_ = m.Count()
			}
		}()
	}

	const submitters, perSubmitter = 4, 10
	var subs sync.WaitGroup
	for i := 0; i < submitters; i++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for k := 0; k < perSubmitter; k++ {
				m.SubmitRun(p)
			}
		}()
	}
	subs.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	pollers.Wait()

	// Every job has finished, so eviction has settled to the history bound
	// and everything left is terminal: done, or fast-failed because it was
	// still queued when the drain began.
	if n := m.Count(); n > history {
		t.Errorf("history holds %d jobs after drain, want at most %d", n, history)
	}
	for _, st := range m.Jobs() {
		switch {
		case st.State == StateDone:
		case st.State == StateFailed && strings.Contains(st.Error, "shutting down"):
		default:
			t.Errorf("job %s is %s (%q) after drain", st.ID, st.State, st.Error)
		}
	}

	// A submission losing the race against Drain fails fast instead of
	// executing (or corrupting the drained manager's bookkeeping).
	late := m.SubmitRun(p)
	if st := late.status(); st.State != StateFailed || !strings.Contains(st.Error, "shutting down") {
		t.Errorf("post-drain submission = %+v, want fast shutdown failure", st)
	}
}

// stubRunner stands in for the fabric coordinator: canned metrics, no
// simulation.
type stubRunner struct {
	mu    sync.Mutex
	calls int
}

func (s *stubRunner) Fill(pts []sweep.Point, out *sweep.Stream) {
	for i, p := range pts {
		rec := sweep.Record{Point: p}
		rec.Cycles = 4242
		out.Complete(i, rec)
	}
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
}

func (s *stubRunner) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func TestConfigRunnerRoutesSweepsOnly(t *testing.T) {
	eng := &sweep.Engine{}
	stub := &stubRunner{}
	ts := httptest.NewServer(New(Config{Engine: eng, Runner: stub, Log: quietLog(), MaxConcurrentJobs: 4}).Handler())
	t.Cleanup(ts.Close)

	// Sweeps go through the injected Runner: the engine never measures.
	var st Status
	if code := postJSON(t, ts, "/v1/sweeps", `{"kernels":[2],"sizes":[8],"cores":[1,2]}`, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	final := waitDone(t, ts, "/v1/sweeps/"+st.ID)
	if final.State != StateDone || final.Done != 2 {
		t.Fatalf("final status = %+v", final)
	}
	if got := stub.count(); got != 1 {
		t.Errorf("runner ran %d times, want 1", got)
	}
	if st := eng.Stats(); st.Points != 0 {
		t.Errorf("engine measured %d points although a Runner is configured", st.Points)
	}
	resp, err := http.Get(ts.URL + final.Results)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sweep.ReadJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Cycles != 4242 {
			t.Errorf("streamed record cycles = %d, want the runner's canned 4242", r.Cycles)
		}
	}

	// Single runs stay on the engine — the Runner seam is sweep-only.
	if code := postJSON(t, ts, "/v1/runs", `{"kernel":2,"n":8}`, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", code)
	}
	if final := waitDone(t, ts, "/v1/runs/"+st.ID); final.State != StateDone {
		t.Fatalf("run status = %+v", final)
	}
	if got := stub.count(); got != 1 {
		t.Errorf("runner ran %d times after a single run, want still 1", got)
	}
	if st := eng.Stats(); st.Points != 1 {
		t.Errorf("engine measured %d points, want exactly the single run", st.Points)
	}
}
