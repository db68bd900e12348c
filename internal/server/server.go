package server

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/jsonhttp"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/pbbs"
	"repro/internal/sweep"
)

// Config configures New.
type Config struct {
	// Engine is the shared sweep engine (cache, worker pool, scheduler
	// choice). Required.
	Engine *sweep.Engine
	// Runner, when non-nil, fills sweep grids' streams instead of the
	// engine's Fill — the hook the fabric coordinator uses to shard sweeps
	// across registered workers (single-point runs stay on the engine). Grid
	// order is the stream's; a runner only lands the records the engine
	// would, so streamed JSONL stays byte-identical.
	Runner Runner
	// Log receives request and job-lifecycle records; slog.Default when nil.
	Log *slog.Logger
	// MaxHistory bounds the finished jobs kept before the oldest are
	// evicted (default DefaultMaxHistory).
	MaxHistory int
	// MaxConcurrentJobs bounds the jobs executing at once; submissions
	// beyond it queue in StateSubmitted (default DefaultMaxConcurrentJobs).
	MaxConcurrentJobs int
}

// Server routes the HTTP API over a job manager.
type Server struct {
	mgr *Manager
	log *slog.Logger
	mux *http.ServeMux
}

// New wires the routes. Serve the result of Handler.
func New(cfg Config) *Server {
	log := cfg.Log
	if log == nil {
		log = slog.Default()
	}
	s := &Server{
		mgr: NewManager(cfg.Engine, log, cfg.MaxHistory, cfg.MaxConcurrentJobs),
		log: log,
		mux: http.NewServeMux(),
	}
	if cfg.Runner != nil {
		s.mgr.runner = cfg.Runner
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	s.mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus(KindSweep))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus(KindRun))
	return s
}

// Handler returns the routed handler wrapped in structured request logging.
func (s *Server) Handler() http.Handler { return s.logged(s.mux) }

// Drain waits for submitted jobs to finish, for graceful shutdown after the
// HTTP listener has stopped.
func (s *Server) Drain(ctx context.Context) error { return s.mgr.Drain(ctx) }

// writeJSON answers with v as the JSON body and logs a failed write.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	s.logWriteError(jsonhttp.Write(w, code, v))
}

// writeError answers with a JSON {"error": ...} body and logs a failed write.
func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.logWriteError(jsonhttp.Error(w, code, format, args...))
}

func (s *Server) logWriteError(err error) {
	if err != nil {
		s.log.Warn("response write failed", "error", err)
	}
}

// maxBody caps a request body (jsonhttp.Decode answers 413 past it).
const maxBody = 1 << 20

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"jobs":   s.mgr.Count(),
		"engine": struct {
			sweep.Stats
			// Machines: the warm pool built Misses machines and reused Hits.
			Machines machine.PoolStats
		}{s.mgr.eng.Stats(), s.mgr.eng.Pool.Stats()},
	})
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"kernels": pbbs.Catalog()})
}

func (s *Server) handleTopologies(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"topologies": noc.Catalog()})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.Jobs()})
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if code, err := jsonhttp.Decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, code, "bad request body: %v", err)
		return
	}
	spec, err := req.Spec()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.mgr.SubmitSweep(spec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if code, err := jsonhttp.Decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, code, "bad request body: %v", err)
		return
	}
	p, err := req.Point()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, s.mgr.SubmitRun(p).status())
}

// handleStatus serves GET /v1/sweeps/{id} and GET /v1/runs/{id}. A job is
// only addressable under its own kind's collection.
func (s *Server) handleStatus(kind Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := s.mgr.Get(id)
		if !ok || j.Kind != kind {
			s.writeError(w, http.StatusNotFound, "no %s job %q", kind, id)
			return
		}
		s.writeJSON(w, http.StatusOK, j.status())
	}
}

// resultsFlushAt is the size past which a results stream writes what it has
// appended before the batch is done, so that a buffer kept in resultsBufs
// stays near this size whatever the grid.
const resultsFlushAt = 32 << 10

// resultsBufs holds the results streams' line buffers between requests.
var resultsBufs = sync.Pool{New: func() any { return new([]byte) }}

// handleResults streams a sweep's records as JSONL in deterministic grid
// order: each batch the stream hands out is appended into one pooled buffer
// and sent with one Write (more past resultsFlushAt), then flushed. If the
// job is still running the stream follows it until completion, so a plain
// `curl` yields exactly the file `repro sweep -o` would have written for the
// same grid over the same cache: both write Record.AppendJSONL's lines.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.mgr.Get(id)
	if !ok || j.Kind != KindSweep {
		s.writeError(w, http.StatusNotFound, "no sweep job %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	bp := resultsBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf
		resultsBufs.Put(bp)
	}()
	ended := j.ended
	for n := 0; ; {
		recs, wake := j.out.Next(n)
		for i := range recs {
			var err error
			if buf, err = recs[i].AppendJSONL(buf); err != nil {
				_, _ = w.Write(buf) // the records before the one that failed
				return
			}
			if len(buf) >= resultsFlushAt || i == len(recs)-1 {
				if _, err := w.Write(buf); err != nil {
					return
				}
				buf = buf[:0]
			}
		}
		n += len(recs)
		_ = rc.Flush()
		if wake == nil || ended == nil {
			return
		}
		select {
		case <-wake:
		case <-ended:
			// One more pass sends what landed before the job ended; a job
			// failed before it ran never fills its stream.
			ended = nil
		case <-r.Context().Done():
			return
		}
	}
}

// statusWriter captures the response code and size for the request log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += n
	return n, err
}

// Unwrap lets http.NewResponseController reach Flush on the wrapped writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// logged is the structured request-logging middleware.
func (s *Server) logged(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.code, "bytes", sw.bytes,
			"dur", time.Since(start).Round(time.Microsecond))
	})
}
