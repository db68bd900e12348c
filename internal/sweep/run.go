package sweep

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/fanout"
	"repro/internal/machine"
	"repro/internal/pbbs"
)

// Stats counts what a sweep run did.
type Stats struct {
	// Points is the grid size after normalisation and dedup.
	Points int
	// Hits is how many points were served from the cache: its file, or the
	// engine's memory of an outcome it already read or measured.
	Hits int
	// Coalesced is how many points shared a concurrent in-flight measurement
	// of the same content key instead of simulating (singleflight).
	Coalesced int
	// Simulated is how many points ran the machine simulator.
	Simulated int
	// Failures is how many points errored (build, divergence, timeout).
	Failures int
	// FrontBuilt is how many points compiled their kernel and hashed its
	// program and inputs; FrontReused is how many found that already done for
	// their (kernel, n, seed) and paid a lookup instead (see frontEnd).
	FrontBuilt  int
	FrontReused int
}

func (s Stats) String() string {
	return fmt.Sprintf("%d points: %d cached, %d coalesced, %d simulated, %d failed; front ends: %d built, %d reused",
		s.Points, s.Hits, s.Coalesced, s.Simulated, s.Failures, s.FrontBuilt, s.FrontReused)
}

// Engine measures sweep grids on a bounded number of goroutines, with an
// optional persistent cache and warm-machine pool.
type Engine struct {
	// Cache, when non-nil, serves repeated points without re-simulation. The
	// engine also remembers the successful outcomes it read from or stored in
	// the cache (up to 65 536 of them), so a repeated point costs a map
	// lookup; the cache stays the copy other engines and processes read.
	Cache *Cache
	// Workers bounds concurrent measurements; <= 0 uses GOMAXPROCS.
	Workers int
	// Pool, when non-nil, serves machines from a warm pool instead of
	// constructing one per measurement: any parked machine is bound to the
	// next point's program and chip, whatever it ran before, so a grid runs
	// on about Workers machines. Outcomes are byte-identical with and without
	// the pool (pinned by TestPooledRunsMatchFresh).
	Pool *machine.Pool

	mu      sync.Mutex
	stats   Stats
	flights flightGroup
	fronts  frontMemo
}

// Stats returns the counters accumulated over every Run of this engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// MeasureEach measures every point, at most Workers at a time (the bound and
// its GOMAXPROCS default live in internal/fanout), and returns when all have
// finished. done(i, rec) is called from the measuring goroutine as soon as
// point i has its record, in no particular order — hand the records to a
// Stream to get them back in grid order.
func (e *Engine) MeasureEach(pts []Point, done func(i int, rec Record)) {
	fanout.Each(len(pts), e.Workers, func(i int) { done(i, e.Measure(pts[i])) })
}

// Run measures every point of the grid. Points are measured concurrently
// (MeasureEach), but emit (when non-nil) is called from this goroutine in
// deterministic grid order, as soon as each prefix of the grid is complete —
// the streaming hook for incremental JSONL output. The returned records are
// in the same order. Per-point failures are reported inside the records
// (Record.Err) and joined into the returned error (Stream.Collect).
func (e *Engine) Run(spec *Spec, emit func(Record)) ([]Record, error) {
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	out := NewStream(len(pts))
	measured := make(chan struct{})
	go func() {
		defer close(measured)
		e.MeasureEach(pts, func(i int, rec Record) { out.Complete(i, rec) })
	}()
	recs, err := out.Collect(emit)
	<-measured
	return recs, err
}

// Measure runs one point: resolve the kernel, derive the content key, serve
// from the cache or simulate + validate, and store the outcome. The compiled
// program and the key's program-and-inputs prefix come from the engine's
// front-end memo, so a point whose (kernel, n, seed) the engine has seen
// costs a lookup and the hashing of its chip coordinates before the cache is
// asked. It is the programmatic run-one-point API (the grid path Run and
// the job server both build on it) and is safe for concurrent use:
// concurrent measurements of the same content key are coalesced
// (singleflight), so N identical in-flight submissions simulate a point
// exactly once and share the outcome; with a Cache, a point this engine
// already read or measured is served from its memory. A dataset size below
// the kernel's minimum is clamped and the display name is normalised; the
// returned record carries the effective point.
func (e *Engine) Measure(p Point) Record {
	rec := Record{Point: p}
	e.count(func(s *Stats) { s.Points++ })

	fail := func(err error) Record {
		rec.Err = err.Error()
		e.count(func(s *Stats) { s.Failures++ })
		return rec
	}

	k, err := pbbs.ByID(p.Kernel)
	if err != nil {
		return fail(err)
	}
	requested := p.N
	p.N, p.Name = k.ClampN(p.N), k.Name
	rec.Point = p
	if p.N != requested {
		// The clamp used to be silent; the record now carries the size the
		// caller asked for next to the size that actually ran.
		rec.RequestedN = requested
	}
	fe, built := e.fronts.get(k, p.N, p.Seed)
	e.count(func(s *Stats) {
		if built {
			s.FrontBuilt++
		} else {
			s.FrontReused++
		}
	})
	if fe.err != nil {
		return fail(fe.err)
	}
	rec.Key = finishKey(fe.prefix, p)

	f, leader, remembered := e.flights.join(rec.Key)
	if !leader {
		<-f.done
		rec.Metrics, rec.Err = f.metrics, f.errMsg
		e.count(func(s *Stats) {
			switch {
			case rec.Err != "":
				s.Failures++
			case remembered:
				s.Hits++
			default:
				s.Coalesced++
			}
		})
		return rec
	}
	// Only an engine with a cache remembers: the memory is a faster copy of
	// what the cache holds, and an engine without one simulates every call.
	defer func() { e.flights.finish(rec.Key, f, rec.Metrics, rec.Err, e.Cache != nil) }()

	if m, ok := e.Cache.Get(rec.Key); ok {
		rec.Metrics = *m
		e.count(func(s *Stats) { s.Hits++ })
		return rec
	}

	// Only a miss needs the inputs themselves; the key already covers them.
	prog, in := fe.prog, k.Gen(p.N, p.Seed)
	cfg, err := configOf(p)
	if err != nil {
		return fail(err)
	}
	// The timed window covers machine acquisition, input injection and the
	// run, so SimNs reflects what the pool amortizes: a pooled Get rebinds
	// warmed arenas where a fresh construction allocates them.
	start := time.Now()
	sim, err := e.Pool.Get("", prog, cfg)
	if err != nil {
		return fail(err)
	}
	if err := backend.Inject(prog, sim.DMH(), in); err != nil {
		return fail(err)
	}
	mr, err := sim.Run()
	simNs := time.Since(start).Nanoseconds()
	if err != nil {
		return fail(err)
	}
	// A faulted machine is not returned to the pool; this one ran clean.
	e.Pool.Put("", sim)
	e.count(func(s *Stats) { s.Simulated++ })
	want, err := k.Ref(p.N, in)
	if err != nil {
		return fail(fmt.Errorf("reference: %w", err))
	}
	if mr.RAX != want {
		return fail(fmt.Errorf("checksum %d, reference %d", mr.RAX, want))
	}
	rec.Metrics = metricsOf(mr, simNs)
	// The cache is best-effort: a failed store just means the point is
	// re-simulated next time.
	_ = e.Cache.Put(rec.Key, &rec.Metrics)
	return rec
}

// configOf is the machine configuration a point runs under.
func configOf(p Point) (machine.Config, error) {
	net, err := MakeNet(p.Topology, p.Cores)
	if err != nil {
		return machine.Config{}, err
	}
	return machine.Config{
		Cores:              p.Cores,
		Net:                net,
		CreateLatency:      2,
		Shortcut:           p.Shortcut,
		MaxSectionsPerCore: p.MaxSections,
	}, nil
}

// metricsOf is what a point records of its machine run, simNs the host
// nanoseconds the run took.
func metricsOf(mr *machine.Result, simNs int64) Metrics {
	return Metrics{
		Instructions:     mr.Instructions,
		Cycles:           mr.Cycles,
		IPC:              float64(mr.Instructions) / float64(mr.Cycles),
		FetchCycles:      mr.FetchDone,
		RetireCycles:     mr.RetireDone,
		Sections:         len(mr.Sections),
		RegRequests:      mr.RegRequests,
		MemRequests:      mr.MemRequests,
		CreateMessages:   mr.CreateMessages,
		RequestHops:      mr.RequestHops,
		ResponseMessages: mr.ResponseMessages,
		DMHAnswers:       mr.DMHAnswers,
		NocMessages:      mr.NocMessages(),
		Checksum:         mr.RAX,
		SimNs:            simNs,
		NsPerCycle:       float64(simNs) / float64(mr.Cycles),
	}
}

func (e *Engine) count(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}
