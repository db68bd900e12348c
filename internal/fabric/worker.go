package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/sweep"
)

// Worker is the client side of the fabric: it registers with a coordinator,
// leases point batches, measures them on its local engine and reports the
// records back. Create one per process and call Run.
type Worker struct {
	// Coordinator is the coordinator's base URL (scheme://host:port).
	Coordinator string
	// Eng measures leased points; its cache/pool/singleflight make repeated
	// and concurrent points cheap exactly as in a local sweep. Required.
	Eng *sweep.Engine
	// Name labels this worker in coordinator logs and status.
	Name string
	// Client overrides the HTTP client (tests inject fault transports).
	Client *http.Client
	// Log receives worker events; slog.Default when nil.
	Log *slog.Logger
	// Poll overrides the coordinator-suggested idle poll interval. Lease
	// renewals keep to the suggested one.
	Poll time.Duration
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) logger() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.Default()
}

// Run serves the coordinator until ctx is cancelled (the only way it
// returns). Transport errors back off and retry; an unknown-worker reply
// re-registers (surviving coordinator restarts); leased batches are
// measured with the engine's concurrency and reported with retry — if every
// report attempt fails the batch is simply dropped and the lease expiry
// re-queues the points elsewhere.
func (w *Worker) Run(ctx context.Context) error {
	for {
		reg, err := w.register(ctx)
		if err != nil {
			return err
		}
		if err := w.serve(ctx, reg); err != nil {
			if isUnknownWorker(err) {
				w.logger().Info("fabric worker re-registering", "worker", reg.Worker)
				continue
			}
			return err
		}
	}
}

// register announces the worker, retrying with backoff until the
// coordinator answers or ctx ends.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	backoff := 100 * time.Millisecond
	for {
		var reg RegisterResponse
		err := w.post(ctx, PathRegister, RegisterRequest{Name: w.Name}, &reg)
		if err == nil {
			w.logger().Info("fabric worker registered",
				"worker", reg.Worker, "coordinator", w.Coordinator,
				"batch", reg.Batch, "leaseMs", reg.LeaseMS)
			return reg, nil
		}
		if ctx.Err() != nil {
			return RegisterResponse{}, ctx.Err()
		}
		w.logger().Warn("fabric register failed, retrying", "error", err)
		if err := sleep(ctx, backoff); err != nil {
			return RegisterResponse{}, err
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// serve is the lease/measure/report loop for one registration. It returns
// an unknown-worker error to trigger re-registration, or ctx's error.
func (w *Worker) serve(ctx context.Context, reg RegisterResponse) error {
	// Renewals keep to the coordinator's interval, a fifth of the lease,
	// whatever the idle poll.
	renewal := time.Duration(reg.PollMS) * time.Millisecond
	if renewal <= 0 {
		renewal = time.Second
	}
	poll := w.Poll
	if poll <= 0 {
		poll = renewal
	}
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var grant LeaseResponse
		err := w.post(ctx, PathLease, LeaseRequest{Worker: reg.Worker}, &grant)
		switch {
		case err != nil && isUnknownWorker(err):
			return err
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logger().Warn("fabric lease failed", "error", err)
			fallthrough
		case len(grant.Points) == 0:
			if err := sleep(ctx, poll); err != nil {
				return err
			}
			continue
		}
		stop := w.renew(ctx, reg.Worker, grant.Lease, renewal)
		results := w.measure(grant.Points)
		stop()
		if err := w.report(ctx, reg.Worker, grant.Lease, results, poll); err != nil {
			if isUnknownWorker(err) || ctx.Err() != nil {
				return err
			}
			// Dropped batch: the lease expires and the points re-queue.
			w.logger().Warn("fabric report dropped", "lease", grant.Lease, "error", err)
		}
	}
}

// measure runs a leased batch through the local engine's fan-out, as
// concurrently as the engine's worker budget allows.
func (w *Worker) measure(pts []LeasePoint) []ReportResult {
	res := make([]ReportResult, len(pts))
	grid := make([]sweep.Point, len(pts))
	for i, lp := range pts {
		grid[i] = lp.Point
	}
	w.Eng.MeasureEach(grid, func(i int, rec sweep.Record) {
		res[i] = ReportResult{Task: pts[i].Task, Record: rec}
	})
	return res
}

// renew keeps a lease from expiring while its batch is measured: every
// interval it sends an empty report for the lease, which moves the lease's
// deadline (Coordinator.Report). A batch done within one interval sends
// nothing and starts no goroutine. The returned stop ends the renewals,
// waiting for one in progress.
func (w *Worker) renew(ctx context.Context, worker, lease string, interval time.Duration) (stop func()) {
	var mu sync.Mutex // held by a renewal in progress
	stopped := false
	mu.Lock()
	defer mu.Unlock()
	var t *time.Timer
	t = time.AfterFunc(interval, func() {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return
		}
		if err := w.post(ctx, PathReport, ReportRequest{Worker: worker, Lease: lease}, new(ReportResponse)); err != nil && ctx.Err() == nil {
			w.logger().Warn("fabric lease renewal failed", "lease", lease, "error", err)
		}
		t.Reset(interval)
	})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		t.Stop()
	}
}

// report delivers results, retrying transport failures a few times — the
// work is already done, losing the report costs a whole re-measure
// somewhere else (or a cache hit, when the fleet shares the store).
func (w *Worker) report(ctx context.Context, worker, lease string, results []ReportResult, poll time.Duration) error {
	req := ReportRequest{Worker: worker, Lease: lease, Results: results}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			if serr := sleep(ctx, poll/2+1); serr != nil {
				return serr
			}
		}
		var resp ReportResponse
		if err = w.post(ctx, PathReport, req, &resp); err == nil {
			if resp.Duplicates > 0 {
				w.logger().Info("fabric report had duplicates",
					"lease", lease, "accepted", resp.Accepted, "duplicates", resp.Duplicates)
			}
			return nil
		}
		if isUnknownWorker(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// post round-trips one protocol call. Non-2xx replies come back as
// *statusError carrying the coordinator's error message.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		if json.Unmarshal(msg, &apiErr) == nil && apiErr.Error != "" {
			return &statusError{code: resp.StatusCode, msg: apiErr.Error}
		}
		return &statusError{code: resp.StatusCode, msg: string(msg)}
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(out)
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
