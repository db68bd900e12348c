// Package server is the simulation-as-a-service layer: a long-running HTTP
// job server over the sweep engine and its content-keyed result cache, so
// the reproduction's measurements (the scaling studies behind the paper's
// Figs. 8–10 and Section 5) can be driven by many concurrent clients
// instead of one-shot CLI invocations.
//
// It reproduces no paper material itself — it is serving infrastructure,
// the step from "a laboratory you run" to "a laboratory you query":
//
//   - POST /v1/sweeps submits a whole grid (the same cross-product
//     `repro sweep` runs) and POST /v1/runs submits a single machine point;
//     both return immediately with a job ID.
//   - GET /v1/sweeps/{id} and GET /v1/runs/{id} poll the job lifecycle
//     (submitted → running → done | failed).
//   - GET /v1/sweeps/{id}/results streams the records as JSONL in
//     deterministic grid order, incrementally while the job still runs —
//     byte-identical to the file `repro sweep -o` writes for the same grid
//     over the same cache.
//   - GET /v1/kernels and GET /v1/topologies serve the catalogs
//     (pbbs.Catalog, noc.Catalog); GET /v1/jobs lists the bounded job
//     history; GET /healthz reports liveness and engine counters.
//
// Jobs execute on the shared sweep.Engine, so every submission benefits
// from the persistent cache and from request coalescing: concurrent
// measurements of the same point are deduplicated by the engine's
// singleflight (N identical simultaneous submissions simulate each grid
// point exactly once). The job history is bounded (finished jobs beyond the
// limit are evicted oldest-first), requests are logged structurally
// (log/slog), and Drain supports graceful shutdown.
package server
