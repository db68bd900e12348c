package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pbbs"
	"repro/internal/sweep"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer serves the API over the given engine with a generous job
// concurrency so tests can overlap submissions.
func newTestServer(t *testing.T, eng *sweep.Engine) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Config{Engine: eng, Log: quietLog(), MaxConcurrentJobs: 16}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getJSON fetches path and decodes the response into v, returning the
// status code.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// postJSON posts body to path and decodes the response into v, returning
// the status code.
func postJSON(t *testing.T, ts *httptest.Server, path, body string, v any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls the job's status endpoint until it reaches a terminal
// state.
func waitDone(t *testing.T, ts *httptest.Server, path string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st Status
		if code := getJSON(t, ts, path, &st); code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, code)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", path, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCatalogEndpoints(t *testing.T) {
	ts := newTestServer(t, &sweep.Engine{})

	var ks struct{ Kernels []pbbs.Info }
	if code := getJSON(t, ts, "/v1/kernels", &ks); code != http.StatusOK {
		t.Fatalf("GET /v1/kernels = %d", code)
	}
	// The paper's ten Table 1 kernels plus the histogram extra: a literal, so
	// that a kernel dropped from the registry fails here.
	if len(ks.Kernels) != 11 {
		t.Errorf("kernels catalog has %d entries, want 11", len(ks.Kernels))
	}
	found := false
	for _, k := range ks.Kernels {
		if strings.Contains(k.Name, "quickSort") {
			found = true
		}
		if k.ID <= 0 || k.MinN <= 0 {
			t.Errorf("catalog entry missing metadata: %+v", k)
		}
		if k.Lang != "minic" && k.Lang != "go" {
			t.Errorf("catalog entry %q has lang %q, want minic or go", k.Name, k.Lang)
		}
	}
	if !found {
		t.Errorf("kernels catalog lacks quickSort: %+v", ks.Kernels)
	}

	var topos struct {
		Topologies []struct{ Name, Description string }
	}
	if code := getJSON(t, ts, "/v1/topologies", &topos); code != http.StatusOK {
		t.Fatalf("GET /v1/topologies = %d", code)
	}
	if len(topos.Topologies) != 3 { // crossbar, ring, mesh
		t.Errorf("topology catalog has %d entries, want 3", len(topos.Topologies))
	}
	for _, tp := range topos.Topologies {
		if tp.Name == "" || tp.Description == "" {
			t.Errorf("topology entry missing metadata: %+v", tp)
		}
	}
}

// TestHealthz: liveness, plus the engine's counters with the warm pool's
// account beside them — two different points measured on one machine read as
// one built, one reused, and so does the one kernel front end they share.
func TestHealthz(t *testing.T) {
	eng := &sweep.Engine{Pool: machine.NewPool()}
	for _, cores := range []int{1, 2} {
		if rec := eng.Measure(sweep.Point{Kernel: 10, N: 8, Cores: cores, Topology: sweep.TopoCrossbar, Shortcut: true, Seed: 1}); rec.Err != "" {
			t.Fatal(rec.Err)
		}
	}
	ts := newTestServer(t, eng)
	var h struct {
		Status string
		Engine struct {
			Simulated, FrontBuilt, FrontReused int
			Machines                           machine.PoolStats
		}
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("GET /healthz = %d %+v", code, h)
	}
	if want := (machine.PoolStats{Hits: 1, Misses: 1}); h.Engine.Simulated != 2 || h.Engine.Machines != want ||
		h.Engine.FrontBuilt != 1 || h.Engine.FrontReused != 1 {
		t.Errorf("GET /healthz engine = %+v, want 2 simulated on %+v from 1 front end built, 1 reused", h.Engine, want)
	}
}

// TestOversizedBodies: the submission handlers cap their bodies at 1 MiB and
// say so — 413, not the 400 a silently truncated body used to parse into. A
// body just under the cap is still read in full and judged on its content.
func TestOversizedBodies(t *testing.T) {
	h := New(Config{Engine: &sweep.Engine{}, Log: quietLog()}).Handler()
	const limit = 1 << 20
	bad := `{"sizes":[0]}` // parsed in full, then refused as an invalid axis
	for _, c := range []struct {
		path string
		pad  int
		want int
	}{
		{"/v1/sweeps", limit - len(bad), http.StatusBadRequest},
		{"/v1/sweeps", limit, http.StatusRequestEntityTooLarge},
		{"/v1/runs", limit - len(bad), http.StatusBadRequest},
		{"/v1/runs", limit, http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(strings.Repeat(" ", c.pad)+bad)))
		var e struct{ Error string }
		if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || rec.Code != c.want || e.Error == "" {
			t.Errorf("POST %s with a %d-byte body = %d (error %q, %v), want %d with a message",
				c.path, c.pad+len(bad), rec.Code, e.Error, err, c.want)
		}
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	ts := newTestServer(t, &sweep.Engine{Workers: 4})

	var st Status
	code := postJSON(t, ts, "/v1/sweeps", `{"kernels":["10"],"sizes":[8],"cores":[1,2]}`, &st)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	if st.ID == "" || st.Kind != KindSweep || st.Points != 2 || st.Results == "" {
		t.Fatalf("submission status = %+v", st)
	}

	final := waitDone(t, ts, "/v1/sweeps/"+st.ID)
	if final.State != StateDone || final.Done != 2 || final.Started == nil || final.Finished == nil {
		t.Fatalf("final status = %+v", final)
	}

	resp, err := http.Get(ts.URL + final.Results)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results Content-Type = %q", ct)
	}
	recs, err := sweep.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Cores != 1 || recs[1].Cores != 2 {
		t.Fatalf("results = %+v, want the 2 grid points in order", recs)
	}

	var jobs struct{ Jobs []Status }
	if code := getJSON(t, ts, "/v1/jobs", &jobs); code != http.StatusOK || len(jobs.Jobs) != 1 || jobs.Jobs[0].ID != st.ID {
		t.Errorf("GET /v1/jobs = %d %+v", code, jobs)
	}
}

func TestRunJobLifecycle(t *testing.T) {
	ts := newTestServer(t, &sweep.Engine{})

	var st Status
	code := postJSON(t, ts, "/v1/runs", `{"kernel":10,"n":8,"cores":2}`, &st)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", code)
	}
	if st.Kind != KindRun || st.Points != 1 {
		t.Fatalf("submission status = %+v", st)
	}
	final := waitDone(t, ts, "/v1/runs/"+st.ID)
	if final.State != StateDone || final.Record == nil {
		t.Fatalf("final status = %+v", final)
	}
	if final.Record.Cycles == 0 || final.Record.Cores != 2 || final.Record.N != 8 {
		t.Errorf("run record = %+v", final.Record)
	}
	if final.Record.RequestedN != 0 {
		t.Errorf("in-range run carries RequestedN = %d", final.Record.RequestedN)
	}

	// A request below the kernel's minimum flows through to the engine,
	// which clamps it and keeps the original size in the record.
	if code := postJSON(t, ts, "/v1/runs", `{"kernel":10,"n":1}`, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", code)
	}
	final = waitDone(t, ts, "/v1/runs/"+st.ID)
	if final.State != StateDone || final.Record == nil {
		t.Fatalf("final status = %+v", final)
	}
	if final.Record.N != 2 || final.Record.RequestedN != 1 {
		t.Errorf("clamped run record n=%d requestedN=%d, want 2 and 1", final.Record.N, final.Record.RequestedN)
	}
}

func TestNotFound(t *testing.T) {
	ts := newTestServer(t, &sweep.Engine{})
	for _, path := range []string{
		"/v1/sweeps/nope",
		"/v1/sweeps/nope/results",
		"/v1/runs/nope",
		"/v1/nonexistent",
	} {
		if code := getJSON(t, ts, path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}

	// A run job is not addressable as a sweep (and vice versa).
	var st Status
	if code := postJSON(t, ts, "/v1/runs", `{"kernel":"10","n":8}`, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", code)
	}
	if code := getJSON(t, ts, "/v1/sweeps/"+st.ID, nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/sweeps/%s (a run job) = %d, want 404", st.ID, code)
	}
	waitDone(t, ts, "/v1/runs/"+st.ID)
}

// axisJSON is the JSON list 1..n: 10⁴ sizes × 10⁴ cores fit a body of 100 kB
// and spell 10⁸ points a kernel.
func axisJSON(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		b.WriteString("," + strconv.Itoa(i))
	}
	return "[" + b.String()[1:] + "]"
}

// overLimitBodies ask for more than a request may (maxGridPoints, maxCores,
// maxN); each must be refused with 400 naming the limit, before anything
// enumerates or allocates what it asks for.
var overLimitBodies = []struct{ path, body string }{
	{"/v1/sweeps", `{"sizes":` + axisJSON(10000) + `,"cores":` + axisJSON(10000) + `}`},
	{"/v1/sweeps", `{"kernels":[10],"sizes":` + axisJSON(257) + `,"cores":` + axisJSON(256) + `}`}, // one row over
	{"/v1/sweeps", `{"kernels":[10],"cores":[1,65537]}`},
	{"/v1/runs", `{"kernel":"10","cores":65537}`},
	{"/v1/runs", `{"kernel":"10","cores":4000000000000000000,"topology":"mesh"}`}, // a slab no host has
	{"/v1/sweeps", `{"kernels":[10],"sizes":[64,65537]}`},
	{"/v1/runs", `{"kernel":"nn","n":1000000000000}`}, // a 16 TB data segment
}

// badBodies are malformed or invalid requests, each refused with 400.
var badBodies = []struct{ path, body string }{
	{"/v1/sweeps", `{`},                                // malformed JSON
	{"/v1/sweeps", `{"kernals":[1]}`},                  // misspelled field
	{"/v1/sweeps", `{"kernels":["zzz"]}`},              // unknown kernel
	{"/v1/sweeps", `{"topologies":["torus"]}`},         // unknown topology
	{"/v1/sweeps", `{"sizes":[0]}`},                    // invalid axis value
	{"/v1/sweeps", `{"kernels":[true]}`},               // wrong selector type
	{"/v1/sweeps", `{"kernels":[2]}{"kernels":[3]}`},   // a second value
	{"/v1/runs", `{`},                                  // malformed JSON
	{"/v1/runs", `{}`},                                 // missing kernel
	{"/v1/runs", `{"kernel":"sort"}`},                  // ambiguous selector
	{"/v1/runs", `{"kernel":"10","topology":"torus"}`}, // unknown topology
	{"/v1/runs", `{"kernel":"10","cores":-1}`},         // bad core count
	{"/v1/runs", `{"kernel":"10","maxSections":-1}`},   // bad cap
	{"/v1/runs", `{"kernel":"10"} garbage`},            // data after the value
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, &sweep.Engine{})
	for _, c := range overLimitBodies {
		var e struct{ Error string }
		if code := postJSON(t, ts, c.path, c.body, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "limit of 65536") {
			t.Errorf("POST %s %.60s… = %d (error %q), want 400 naming the limit", c.path, c.body, code, e.Error)
		}
	}
	for _, c := range badBodies {
		var e struct{ Error string }
		if code := postJSON(t, ts, c.path, c.body, &e); code != http.StatusBadRequest || e.Error == "" {
			t.Errorf("POST %s %s = %d (error %q), want 400 with a message", c.path, c.body, code, e.Error)
		}
	}
	// The caps are inclusive: a grid of exactly 65 536 points of up to 65 536
	// elements on up to 65 536 cores is a valid request (resolved here, not
	// submitted), and so is one run at both caps.
	atCap := SweepRequest{Kernels: []KernelSel{"10"}, Sizes: make([]int, 256), Cores: make([]int, 256)}
	for i := range atCap.Sizes {
		atCap.Sizes[i], atCap.Cores[i] = 65536-i, 65536-i
	}
	if _, err := atCap.Spec(); err != nil {
		t.Errorf("a grid at the cap was refused: %v", err)
	}
	if _, err := (&RunRequest{Kernel: "10", N: 65536, Cores: 65536}).Point(); err != nil {
		t.Errorf("a run at the cap was refused: %v", err)
	}
	// Collection endpoints only accept their registered method.
	if code := getJSON(t, ts, "/v1/sweeps", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweeps = %d, want 405", code)
	}
	if code := postJSON(t, ts, "/v1/kernels", `{}`, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/kernels = %d, want 405", code)
	}
}

// TestResultsMatchCLIByteForByte is the acceptance criterion: a sweep
// submitted over HTTP streams JSONL byte-identical to the file the CLI path
// (Engine.Run + JSONLWriter, what `repro sweep -o` does) writes for the
// same grid over the same cache.
func TestResultsMatchCLIByteForByte(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := &sweep.Engine{Cache: cache, Workers: 4}

	spec := &sweep.Spec{Kernels: []int{2, 10}, Sizes: []int{8}, Cores: []int{1, 2}, Seed: 1}
	var cli bytes.Buffer
	jw := sweep.NewJSONLWriter(&cli)
	if _, err := eng.Run(spec, func(r sweep.Record) {
		if err := jw.Write(r); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t, eng)
	var st Status
	if code := postJSON(t, ts, "/v1/sweeps", `{"kernels":[2,10],"sizes":[8],"cores":[1,2],"seed":1}`, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	// The results stream follows the job to completion, so no status
	// polling is needed before fetching.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	httpBytes, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(httpBytes, cli.Bytes()) {
		t.Errorf("HTTP results differ from CLI JSONL:\nHTTP:\n%s\nCLI:\n%s", httpBytes, cli.Bytes())
	}
}

// TestResubmittedSweepIsServedFromMemory: a sweep the CLI path measured,
// submitted over HTTP twice, is served both times from the engine's memory
// of its outcomes, byte-identical to the CLI's JSONL; nothing is simulated
// again and every served point counts as a hit. CI's `smoke serve` checks the
// same over a real process.
func TestResubmittedSweepIsServedFromMemory(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := &sweep.Engine{Cache: cache, Workers: 4}

	spec := &sweep.Spec{Kernels: []int{2, 10}, Sizes: []int{8}, Cores: []int{1, 2}, Seed: 1}
	var cli bytes.Buffer
	jw := sweep.NewJSONLWriter(&cli)
	if _, err := eng.Run(spec, func(r sweep.Record) {
		if err := jw.Write(r); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()

	ts := newTestServer(t, eng)
	for range 2 {
		var st Status
		if code := postJSON(t, ts, "/v1/sweeps", `{"kernels":[2,10],"sizes":[8],"cores":[1,2],"seed":1}`, &st); code != http.StatusAccepted {
			t.Fatalf("POST /v1/sweeps = %d", code)
		}
		// The results stream follows the job to completion, so no status
		// polling is needed before fetching.
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		httpBytes, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(httpBytes, cli.Bytes()) {
			t.Errorf("HTTP results of %s differ from CLI JSONL:\nHTTP:\n%s\nCLI:\n%s", st.ID, httpBytes, cli.Bytes())
		}
	}
	if s := eng.Stats(); s.Simulated != before.Simulated || s.Hits != before.Hits+8 {
		t.Errorf("two served sweeps of 4 points: simulated %d → %d, hits %d → %d; want no simulation and 8 hits",
			before.Simulated, s.Simulated, before.Hits, s.Hits)
	}
}

// TestConcurrentIdenticalSweepsSimulateOnce is the coalescing acceptance
// criterion: K identical simultaneous submissions simulate each grid point
// exactly once — in-flight duplicates coalesce on the engine's singleflight
// and stragglers hit the cache — and every client receives identical bytes.
func TestConcurrentIdenticalSweepsSimulateOnce(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := &sweep.Engine{Cache: cache, Workers: 4}
	ts := newTestServer(t, eng)

	const K = 6
	const body = `{"kernels":["10"],"sizes":[8],"cores":[1,2]}`
	ids := make([]string, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st Status
			if code := postJSON(t, ts, "/v1/sweeps", body, &st); code != http.StatusAccepted {
				t.Errorf("POST %d = %d", i, code)
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()

	var results [][]byte
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		st := waitDone(t, ts, "/v1/sweeps/"+id)
		if st.State != StateDone {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, b)
	}

	if s := eng.Stats(); s.Simulated != 2 {
		t.Errorf("stats = %+v, want exactly 2 simulations (one per grid point) for %d identical submissions", s, K)
	}
	for i := 1; i < K; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("job %s results differ from job %s", ids[i], ids[0])
		}
	}
}

func TestResultsStreamWhileRunning(t *testing.T) {
	// A single-job server: the second submission queues behind the first,
	// and its results connection must open immediately and deliver once the
	// job runs.
	eng := &sweep.Engine{Workers: 2}
	ts := httptest.NewServer(New(Config{Engine: eng, Log: quietLog(), MaxConcurrentJobs: 1}).Handler())
	defer ts.Close()

	var first, second Status
	if code := postJSON(t, ts, "/v1/sweeps", `{"kernels":["10"],"sizes":[8,10],"cores":[1,2]}`, &first); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if code := postJSON(t, ts, "/v1/sweeps", `{"kernels":["10"],"sizes":[8],"cores":[1]}`, &second); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + second.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	recs, err := sweep.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != "" {
		t.Fatalf("streamed results = %+v", recs)
	}
}

func TestHistoryEviction(t *testing.T) {
	m := NewManager(&sweep.Engine{}, quietLog(), 2, 1)
	var jobs []*Job
	// Submit sequentially, waiting each job out, so the eviction order
	// (oldest finished first) is deterministic.
	for i := 0; i < 3; i++ {
		j := m.SubmitRun(sweep.Point{Kernel: 10, N: 8, Cores: 1, Topology: sweep.TopoCrossbar, Shortcut: true, Seed: 1})
		jobs = append(jobs, j)
		deadline := time.Now().Add(30 * time.Second)
		for !j.terminal() {
			if time.Now().After(deadline) {
				t.Fatal("job did not finish")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if got := len(m.Jobs()); got != 2 {
		t.Errorf("history holds %d jobs, want bound of 2", got)
	}
	if _, ok := m.Get(jobs[0].ID); ok {
		t.Errorf("oldest finished job %s not evicted", jobs[0].ID)
	}
	if _, ok := m.Get(jobs[2].ID); !ok {
		t.Errorf("newest job %s evicted", jobs[2].ID)
	}
}

// TestRunClampLogged pins the server-side half of the clamp surfacing: a run
// whose requested N is below the kernel's minimum completes (the engine
// clamps), and the manager says so in its log instead of silently serving a
// different point.
func TestRunClampLogged(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	log := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	m := NewManager(&sweep.Engine{}, log, 8, 1)
	j := m.SubmitRun(sweep.Point{Kernel: 2, N: 1, Cores: 1, Topology: sweep.TopoCrossbar, Shortcut: true, Seed: 1})
	deadline := time.Now().Add(30 * time.Second)
	for !j.terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := j.status()
	if st.State != StateDone || st.Record == nil {
		t.Fatalf("job = %+v", st)
	}
	if st.Record.RequestedN != 1 || st.Record.N != 2 {
		t.Errorf("record requestedN=%d n=%d, want 1 and 2", st.Record.RequestedN, st.Record.N)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "dataset size clamped") ||
		!strings.Contains(logged, "requestedN=1") || !strings.Contains(logged, "effectiveN=2") {
		t.Errorf("clamp not logged:\n%s", logged)
	}
}

// lockedWriter serialises the slog handler's writes so the test can read the
// buffer while the manager's goroutine may still be logging.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestKernelSelUnmarshal(t *testing.T) {
	var req SweepRequest
	if err := json.Unmarshal([]byte(`{"kernels":[2,"bfs"]}`), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Kernels) != 2 || req.Kernels[0] != "2" || req.Kernels[1] != "bfs" {
		t.Errorf("kernels = %+v", req.Kernels)
	}
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Kernels) != 2 || spec.Kernels[0] != 2 {
		t.Errorf("resolved kernels = %+v", spec.Kernels)
	}

	// Every kind of JSON value, in a request body and alone: a string or a
	// number is the selector its text spells, null the empty selector, and
	// anything else a refusal naming the value.
	refused := func(v string) string { return "kernel selector must be a number or a string, got " + v }
	for _, c := range []struct{ in, want, err string }{
		{`2`, "2", ""},
		{`"2"`, "2", ""},
		{`-1`, "-1", ""},
		{`2.5`, "2.5", ""},
		{`1e3`, "1e3", ""},
		{`"2.5"`, "2.5", ""},
		{`"bfs"`, "bfs", ""},
		{`""`, "", ""},
		{`null`, "", ""},
		{`true`, "", refused("true")},
		{`{}`, "", refused("{}")},
		{`[]`, "", refused("[]")},
		{`[2]`, "", refused("[2]")},
	} {
		var run RunRequest
		err := json.Unmarshal([]byte(`{"kernel":`+c.in+`}`), &run)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if msg != c.err || (err == nil && run.Kernel != KernelSel(c.want)) {
			t.Errorf(`{"kernel":%s} decodes to %q, %v; want %q, %q`, c.in, run.Kernel, err, c.want, c.err)
		}
		sel := KernelSel("before")
		err = sel.UnmarshalJSON([]byte(c.in))
		msg = ""
		if err != nil {
			msg = err.Error()
		}
		if msg != c.err || (err == nil && sel != KernelSel(c.want)) {
			t.Errorf("UnmarshalJSON(%s) = %q, %v; want %q, %q", c.in, sel, err, c.want, c.err)
		}
	}
}

// TestRunRequestDefaults: a run request stands for its one-point sweep
// request (each zero field an empty axis), and resolves to the point that
// request's defaults and checks give, at the requested size, unclamped.
func TestRunRequestDefaults(t *testing.T) {
	off := false
	qs := func(p sweep.Point) sweep.Point { p.Kernel, p.Name = 2, "comparisonSort/quickSort"; return p }
	for _, c := range []struct {
		run   RunRequest
		sweep SweepRequest
		want  sweep.Point // the zero point where the request is refused
		err   string      // the refusal, or "" where the request is accepted
	}{
		{RunRequest{Kernel: "quicksort"}, SweepRequest{Kernels: []KernelSel{"quicksort"}},
			qs(sweep.Point{N: 64, Cores: 1, Topology: sweep.TopoCrossbar, Shortcut: true, Seed: 1}), ""},
		{RunRequest{Kernel: "2", N: 8, Cores: 4, Topology: "mesh", Shortcut: &off, MaxSections: 3, Seed: 9},
			SweepRequest{Kernels: []KernelSel{"2"}, Sizes: []int{8}, Cores: []int{4}, Topologies: []string{"mesh"},
				Shortcut: []bool{false}, MaxSections: []int{3}, Seed: 9},
			qs(sweep.Point{N: 8, Cores: 4, Topology: "mesh", Shortcut: false, MaxSections: 3, Seed: 9}), ""},
		{RunRequest{Kernel: "2", N: 1}, SweepRequest{Kernels: []KernelSel{"2"}, Sizes: []int{1}},
			qs(sweep.Point{N: 1, Cores: 1, Topology: sweep.TopoCrossbar, Shortcut: true, Seed: 1}), ""},
		{RunRequest{Kernel: "2", N: -1}, SweepRequest{Kernels: []KernelSel{"2"}, Sizes: []int{-1}},
			sweep.Point{}, "sweep: bad dataset size -1"},
		{RunRequest{Kernel: "2", Cores: -1}, SweepRequest{Kernels: []KernelSel{"2"}, Cores: []int{-1}},
			sweep.Point{}, "sweep: bad core count -1"},
		{RunRequest{Kernel: "2", MaxSections: -1}, SweepRequest{Kernels: []KernelSel{"2"}, MaxSections: []int{-1}},
			sweep.Point{}, "sweep: bad max-sections cap -1"},
		{RunRequest{Kernel: "2", Topology: "torus"}, SweepRequest{Kernels: []KernelSel{"2"}, Topologies: []string{"torus"}},
			sweep.Point{}, `sweep: unknown topology "torus" (want crossbar|ring|mesh)`},
		{RunRequest{Kernel: "2", N: maxN + 1}, SweepRequest{Kernels: []KernelSel{"2"}, Sizes: []int{maxN + 1}},
			sweep.Point{}, fmt.Sprintf("dataset size %d above the limit of %d", maxN+1, maxN)},
		{RunRequest{Kernel: "2", Cores: maxCores + 1}, SweepRequest{Kernels: []KernelSel{"2"}, Cores: []int{maxCores + 1}},
			sweep.Point{}, fmt.Sprintf("core count %d above the limit of %d", maxCores+1, maxCores)},
		{RunRequest{}, SweepRequest{Kernels: []KernelSel{""}}, sweep.Point{}, "kernel is required"},
	} {
		if got := c.run.sweepRequest(); !reflect.DeepEqual(got, c.sweep) {
			t.Errorf("%+v stands for %+v, want %+v", c.run, got, c.sweep)
		}
		p, err := c.run.Point()
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if p != c.want || msg != c.err {
			t.Errorf("%+v resolves to %+v, %v; want %+v, %q", c.run, p, err, c.want, c.err)
		}
	}
}

func TestDrain(t *testing.T) {
	m := NewManager(&sweep.Engine{}, quietLog(), 8, 2)
	for i := 0; i < 3; i++ {
		m.SubmitRun(sweep.Point{Kernel: 10, N: 8, Cores: 1, Topology: sweep.TopoCrossbar, Shortcut: true, Seed: 1})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Jobs that were executing when Drain fired run to completion; jobs
	// still queued fail fast so the drain stays bounded. Either way every
	// job must be terminal.
	for _, st := range m.Jobs() {
		switch {
		case st.State == StateDone:
		case st.State == StateFailed && strings.Contains(st.Error, "shutting down"):
		default:
			t.Errorf("job %s is %s (%q) after Drain", st.ID, st.State, st.Error)
		}
	}
}
