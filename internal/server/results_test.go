package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sweep"
)

// stepRunner is a Runner that lands its grid's records one at a time, each
// when the test sends on step.
type stepRunner struct{ step chan struct{} }

func (r stepRunner) Fill(pts []sweep.Point, out *sweep.Stream) {
	for i, p := range pts {
		<-r.step
		out.Complete(i, sweep.Record{Point: p, Key: strconv.Itoa(i)})
	}
}

// resultsReader is one GET of a results stream, served on its own goroutine
// into a writer that keeps the body and reports the records it holds at
// every flush.
type resultsReader struct {
	mu      sync.Mutex
	body    bytes.Buffer
	flushed chan int      // the record count at each flush
	done    chan struct{} // closed when the handler has returned
}

func (r *resultsReader) Header() http.Header { return http.Header{} }
func (r *resultsReader) WriteHeader(int)     {}
func (r *resultsReader) Write(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Write(b)
}

func (r *resultsReader) Flush() {
	r.mu.Lock()
	n := bytes.Count(r.body.Bytes(), []byte("\n"))
	r.mu.Unlock()
	for { // replace an unread count: the latest is at least as high
		select {
		case r.flushed <- n:
			return
		case <-r.flushed:
		}
	}
}

func startReader(ctx context.Context, h http.Handler, path string) *resultsReader {
	r := &resultsReader{flushed: make(chan int, 1), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		h.ServeHTTP(r, httptest.NewRequest("GET", path, nil).WithContext(ctx))
	}()
	return r
}

// awaitFlush waits until r has flushed at least n records: the handler has
// written them and is back waiting on the stream.
func (r *resultsReader) awaitFlush(t *testing.T, n int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case got := <-r.flushed:
			if got >= n {
				return
			}
		case <-r.done:
			t.Fatalf("results stream ended before it flushed %d records", n)
		case <-timeout:
			t.Fatalf("results stream did not flush %d records within 10 s", n)
		}
	}
}

// awaitEnd waits until r's handler has returned and checks it wrote want.
func (r *resultsReader) awaitEnd(t *testing.T, name string, want []byte) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("the %s reader did not return within 10 s of the job's end", name)
	}
	if !bytes.Equal(r.body.Bytes(), want) {
		t.Errorf("the %s reader got\n%s\nwant\n%s", name, r.body.Bytes(), want)
	}
}

// TestResultsReadersAtEveryStage: three readers of one sweep's results, the
// first waiting before any record exists, the second arriving between records
// and the third after the job has finished. Each gets every record, in grid
// order, and returns once the job has finished: a wake channel is made for
// whoever waits, whenever that is.
func TestResultsReadersAtEveryStage(t *testing.T) {
	step := make(chan struct{})
	t.Cleanup(func() { close(step) }) // lets the runner finish if the test did not
	h := New(Config{Engine: &sweep.Engine{}, Runner: stepRunner{step}, Log: quietLog()}).Handler()
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(`{"kernels":[10],"sizes":[8],"cores":[1,2,3]}`)))
	var st Status
	if err := json.NewDecoder(post.Body).Decode(&st); err != nil || post.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d, %v", post.Code, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	early := startReader(ctx, h, st.Results)
	early.awaitFlush(t, 0)
	step <- struct{}{}
	early.awaitFlush(t, 1)
	middle := startReader(ctx, h, st.Results)
	middle.awaitFlush(t, 1)
	step <- struct{}{}
	step <- struct{}{}

	pts, err := (&sweep.Spec{Kernels: []int{10}, Sizes: []int{8}, Cores: []int{1, 2, 3}}).Points()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	jw := sweep.NewJSONLWriter(&want)
	for i, p := range pts {
		if err := jw.Write(sweep.Record{Point: p, Key: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	early.awaitEnd(t, "early", want.Bytes())
	middle.awaitEnd(t, "middle", want.Bytes())
	startReader(ctx, h, st.Results).awaitEnd(t, "late", want.Bytes())
}

// TestDrainReleasesQueuedResultsReaders: a results reader of a sweep queued
// behind a full job slot returns, with an empty body, once Drain fails the
// sweep before it runs. Its stream never fills, so the job's end is what
// releases the reader.
func TestDrainReleasesQueuedResultsReaders(t *testing.T) {
	step := make(chan struct{})
	srv := New(Config{Engine: &sweep.Engine{}, Runner: stepRunner{step}, Log: quietLog(), MaxConcurrentJobs: 1})
	h := srv.Handler()
	submit := func() *Job {
		post := httptest.NewRecorder()
		h.ServeHTTP(post, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(`{"kernels":[10],"sizes":[8],"cores":[1,2]}`)))
		var st Status
		if err := json.NewDecoder(post.Body).Decode(&st); err != nil || post.Code != http.StatusAccepted {
			t.Fatalf("POST /v1/sweeps = %d, %v", post.Code, err)
		}
		j, _ := srv.mgr.Get(st.ID)
		return j
	}
	running := submit()
	for deadline := time.Now().Add(10 * time.Second); running.status().State != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first sweep did not start within 10 s")
		}
	}
	queued := submit() // waits for the slot the first holds
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	reader := startReader(ctx, h, queued.status().Results)
	reader.awaitFlush(t, 0)
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	reader.awaitEnd(t, "queued", nil)
	if st := queued.status(); st.State != StateFailed || st.Done != 0 {
		t.Errorf("queued sweep after Drain = %s with %d records, want failed with none", st.State, st.Done)
	}
	close(step) // the running sweep finishes, and the drain with it
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := running.status(); st.State != StateDone || st.Done != 2 {
		t.Errorf("running sweep after Drain = %s with %d records, want done with 2", st.State, st.Done)
	}
}

// discardWriter is a results reader that keeps only the number of records
// (lines) it was sent.
type discardWriter struct {
	header http.Header
	lines  int
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(b []byte) (int, error) {
	d.lines += bytes.Count(b, []byte("\n"))
	return len(b), nil
}

// TestServedPointAllocations is the read path's memory contract: a warm
// 33-point grid (every kernel at n=8 on 1, 2 and 4 cores) served through
// Handler(), a POST and then a GET of the results with no status polling,
// costs at most 1 100 bytes and 5 allocations per served point, the job's
// execution included. It costs 843 B and 3.44 allocations, the grid expanded
// once, its records held once, in the job's stream, and appended by hand into
// one pooled buffer per batch (840 B and 3.42 through json.Encoder, which
// allocates nothing per record either); 1 180 B and 3.65 with
// a second copy of the records in the job and a second expansion of the grid;
// and with the bookkeeping that grew with the grid (a set of its points, a
// record slice grown by doubling, a wake channel per record, a record boxed
// per encode) 2 640 B and 6.66.
func TestServedPointAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race include the pool's dropped buffers")
	}
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := &sweep.Engine{Cache: cache, Workers: 2, Pool: machine.NewPool()}
	spec := &sweep.Spec{Sizes: []int{8}, Cores: []int{1, 2, 4}}
	if _, err := eng.Run(spec, nil); err != nil {
		t.Fatal(err)
	}
	points := len(spec.Kernels) * len(spec.Cores) // Run filled in every kernel
	srv := New(Config{Engine: eng, Log: slog.New(slog.DiscardHandler)})
	h := srv.Handler()
	serve := func() {
		post := httptest.NewRecorder()
		h.ServeHTTP(post, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(`{"sizes":[8],"cores":[1,2,4]}`)))
		var st Status
		if err := json.NewDecoder(post.Body).Decode(&st); err != nil || post.Code != http.StatusAccepted {
			t.Fatalf("POST /v1/sweeps = %d, %v", post.Code, err)
		}
		get := &discardWriter{header: http.Header{}}
		h.ServeHTTP(get, httptest.NewRequest("GET", st.Results, nil))
		if get.lines != points {
			t.Fatalf("GET %s streamed %d records, want %d", st.Results, get.lines, points)
		}
	}
	// The first requests fill the engine's memory of the outcomes it reads.
	for range 5 {
		serve()
	}
	const requests = 60
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range requests {
		serve()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil { // the last jobs' bookkeeping counts too
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if s := eng.Stats(); s.Simulated != points {
		t.Fatalf("engine simulated %d points, want the %d of the fill only", s.Simulated, points)
	}
	served := float64(requests * points)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / served
	allocsPer := float64(after.Mallocs-before.Mallocs) / served
	t.Logf("%.0f B and %.2f allocations per served point", bytesPer, allocsPer)
	if bytesPer > 1100 || allocsPer > 5 {
		t.Errorf("a served point costs %.0f B and %.2f allocations, want at most 1 100 B and 5", bytesPer, allocsPer)
	}
}

// landAllRunner lands every point of its grid at once, each record carrying
// err, so that one batch of the stream holds the whole grid.
type landAllRunner struct{ err string }

func (r landAllRunner) Fill(pts []sweep.Point, out *sweep.Stream) {
	for i, p := range pts {
		out.Complete(i, sweep.Record{Point: p, Err: r.err})
	}
}

// writeSizes is a results reader that keeps the body and the size of every
// Write.
type writeSizes struct {
	body   bytes.Buffer
	writes []int
}

func (w *writeSizes) Header() http.Header { return http.Header{} }
func (w *writeSizes) WriteHeader(int)     {}
func (w *writeSizes) Write(b []byte) (int, error) {
	w.writes = append(w.writes, len(b))
	return w.body.Write(b)
}

// TestResultsWriteABatchInBoundedPieces: a batch of about 80 KiB of records
// is sent in Writes that stop at the first record past resultsFlushAt, so the
// pooled buffer never holds the whole batch, and the body is still the
// records' JSONL byte for byte.
func TestResultsWriteABatchInBoundedPieces(t *testing.T) {
	errText := strings.Repeat("a long failure message ", 30)
	srv := New(Config{Engine: &sweep.Engine{}, Runner: landAllRunner{errText}, Log: quietLog()})
	h := srv.Handler()
	cores := make([]string, 100)
	for i := range cores {
		cores[i] = strconv.Itoa(i + 1)
	}
	body := `{"kernels":[10],"sizes":[8],"cores":[` + strings.Join(cores, ",") + `]}`
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(body)))
	var st Status
	if err := json.NewDecoder(post.Body).Decode(&st); err != nil || post.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d, %v", post.Code, err)
	}
	j, _ := srv.mgr.Get(st.ID)
	select {
	case <-j.ended:
	case <-time.After(10 * time.Second):
		t.Fatal("the sweep did not end within 10 s")
	}
	var want []byte
	line := 0 // the longest record's line
	for _, rec := range j.out.Prefix() {
		n := len(want)
		var err error
		if want, err = rec.AppendJSONL(want); err != nil {
			t.Fatal(err)
		}
		line = max(line, len(want)-n)
	}
	got := &writeSizes{}
	h.ServeHTTP(got, httptest.NewRequest("GET", st.Results, nil))
	if !bytes.Equal(got.body.Bytes(), want) {
		t.Fatalf("results differ from the records' JSONL:\n%s\nwant\n%s", got.body.Bytes(), want)
	}
	if len(got.writes) < 2 {
		t.Errorf("%d B of records sent in %d Write, want one per %d B", len(want), len(got.writes), resultsFlushAt)
	}
	for i, n := range got.writes {
		if n >= resultsFlushAt+line {
			t.Errorf("Write %d sent %d B, past the %d B cap by more than a line (%d B)", i, n, resultsFlushAt, line)
		}
	}
}
