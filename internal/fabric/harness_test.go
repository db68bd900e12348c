package fabric

// The in-process multi-node harness: a real coordinator behind an httptest
// listener, N workers as goroutines speaking real HTTP through an
// injectable fault layer (drop, delay, duplicate, kill-on-RPC). Every
// scenario in fabric_test.go runs on this and must stay green under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newCache(t *testing.T, dir string) *sweep.Cache {
	t.Helper()
	c, err := sweep.NewCache(dir)
	if err != nil {
		t.Fatalf("cache %s: %v", dir, err)
	}
	return c
}

// grid is the quick test grid: 8 points, small enough that a whole scenario
// (including -race) stays well under a second of simulation. A fresh Spec
// per call because Points() normalises in place.
func grid() *sweep.Spec {
	return &sweep.Spec{
		Kernels: []int{2, 10},
		Sizes:   []int{8, 12},
		Cores:   []int{1, 2},
		Seed:    1,
	}
}

// gridSize is len(grid().Points()) — kept literal so assertions read.
const gridSize = 8

// newCoordinator serves c over a real HTTP listener.
func newCoordinator(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// node is one in-process "worker machine".
type node struct {
	eng    *sweep.Engine
	cancel context.CancelFunc
	done   chan struct{}
}

// startWorker runs a worker goroutine against the coordinator URL, with an
// optional fault transport. The worker stops at test cleanup (or when the
// fault layer kills it).
func startWorker(t *testing.T, coordURL, name string, eng *sweep.Engine, rt http.RoundTripper) *node {
	t.Helper()
	if rt == nil {
		rt = http.DefaultTransport
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		Coordinator: coordURL,
		Eng:         eng,
		Name:        name,
		Client:      &http.Client{Transport: rt},
		Log:         quietLog(),
	}
	n := &node{eng: eng, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-n.done
	})
	return n
}

// runHandle is a sweep run in flight on its own goroutine, capturing the
// streamed JSONL exactly as `repro sweep -o` would write it.
type runHandle struct {
	buf bytes.Buffer
	ch  chan runResult
}

type runResult struct {
	recs []sweep.Record
	err  error
}

// startRun launches run(spec) in the background; scenarios that stage
// mid-sweep events (starting a rescuer worker after a kill) act between
// startRun and wait.
func startRun(run func(*sweep.Spec, func(sweep.Record)) ([]sweep.Record, error), spec *sweep.Spec) *runHandle {
	h := &runHandle{ch: make(chan runResult, 1)}
	jw := sweep.NewJSONLWriter(&h.buf)
	go func() {
		recs, err := run(spec, func(r sweep.Record) { _ = jw.Write(r) })
		h.ch <- runResult{recs, err}
	}()
	return h
}

// wait blocks for the run, with a generous deadline so a scheduling bug
// fails the suite instead of hanging it. The buffer is only touched by the
// run goroutine, which is done once the result arrives.
func (h *runHandle) wait(t *testing.T) ([]sweep.Record, []byte, error) {
	t.Helper()
	select {
	case res := <-h.ch:
		return res.recs, h.buf.Bytes(), res.err
	case <-time.After(60 * time.Second):
		t.Fatalf("sweep run did not finish within 60s")
		return nil, nil, nil
	}
}

// runJSONL drives a Run function to completion.
func runJSONL(t *testing.T, run func(*sweep.Spec, func(sweep.Record)) ([]sweep.Record, error), spec *sweep.Spec) ([]sweep.Record, []byte, error) {
	t.Helper()
	return startRun(run, spec).wait(t)
}

// waitWorkers blocks until n workers have registered — scenarios call it
// before launching a run so the zero-worker local fast path never races the
// fleet's (asynchronous) registration.
func waitWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Workers >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %d registered workers", n)
}

// mustOK fails on any per-point error.
func mustOK(t *testing.T, recs []sweep.Record, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("point %s n=%d %s failed: %s", r.Name, r.N, r.Config(), r.Err)
		}
	}
}

// sequentialOracle runs the same grid on a fresh single-process engine over
// cacheDir and returns its JSONL bytes — the byte-identity reference. The
// engine is returned so callers can assert it served everything from cache.
func sequentialOracle(t *testing.T, cacheDir string) ([]byte, *sweep.Engine) {
	t.Helper()
	eng := &sweep.Engine{Cache: newCache(t, cacheDir), Workers: 4}
	recs, jsonl, err := runJSONL(t, eng.Run, grid())
	mustOK(t, recs, err)
	return jsonl, eng
}

// faultAction is what the fault layer does to one RPC.
type faultAction struct {
	drop  bool          // fail the RPC without delivering it
	dup   bool          // deliver it twice, returning the second response
	delay time.Duration // hold the RPC before delivering
	also  func()        // side effect (e.g. kill the worker), run after the decision
}

// faultTransport wraps a RoundTripper with a per-request fault decision.
// decide runs on the worker's goroutine; guard any shared counters.
type faultTransport struct {
	base   http.RoundTripper
	decide func(req *http.Request) faultAction
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	act := f.decide(req)
	if act.also != nil {
		defer act.also()
	}
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.drop {
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, fmt.Errorf("fault: dropped %s", req.URL.Path)
	}
	base := f.base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil || !act.dup {
		return resp, err
	}
	// Duplicate: the first delivery already happened; drain it and replay
	// the identical request, handing the worker the second response — the
	// wire-level "report arrived twice" scenario.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	clone := req.Clone(req.Context())
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	clone.Body = body
	return base.RoundTrip(clone)
}

// pathIs matches a fabric RPC by its trailing path segment.
func pathIs(req *http.Request, path string) bool {
	return strings.HasSuffix(req.URL.Path, path)
}

// killSwitch wires a one-shot worker kill into a fault decision: trip()
// cancels the worker's context exactly once.
type killSwitch struct {
	once sync.Once
	ch   chan struct{}
}

func newKillSwitch() *killSwitch { return &killSwitch{ch: make(chan struct{})} }

func (k *killSwitch) trip() { k.once.Do(func() { close(k.ch) }) }

// arm makes the node die when the switch trips.
func (k *killSwitch) arm(n *node) {
	go func() {
		<-k.ch
		n.cancel()
	}()
}

// wait blocks until the switch has tripped.
func (k *killSwitch) wait(t *testing.T) {
	t.Helper()
	select {
	case <-k.ch:
	case <-time.After(60 * time.Second):
		t.Fatalf("kill switch never tripped within 60s")
	}
}

// killOnFirstReport is the canonical mid-batch kill: the worker's first
// report RPC that carries results is dropped on the wire and the worker dies
// at that exact moment — after measuring its leased batch, before the
// coordinator hears about any of it. The empty reports that renew the lease
// while the batch is measured go through. From the trip on, every RPC from
// this worker drops, so it is network-dead deterministically even before the
// context cancel lands.
func killOnFirstReport(kill *killSwitch) *faultTransport {
	return &faultTransport{decide: func(req *http.Request) faultAction {
		select {
		case <-kill.ch:
			return faultAction{drop: true}
		default:
		}
		if pathIs(req, PathReport) && len(reportOf(req).Results) > 0 {
			return faultAction{drop: true, also: kill.trip}
		}
		return faultAction{}
	}}
}

// reportOf decodes the report a request carries, leaving its body unread.
func reportOf(req *http.Request) ReportRequest {
	var rep ReportRequest
	if body, err := req.GetBody(); err == nil {
		_ = json.NewDecoder(body).Decode(&rep)
	}
	return rep
}
