package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/backend"
	"repro/internal/fabric"
	"repro/internal/ilp"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/noc"
	"repro/internal/pbbs"
	"repro/internal/progs"
	"repro/internal/sweep"
)

// The traced run of a workload has three parts. First the workload runs once
// exactly as in the untraced run: that repetition gives the e2e.* values and
// the base of trace_overhead_pct. Then the benchmark replays the workload's
// steps by hand, calling each layer through its public functions with a span
// around each call: the self-time table comes from these spans. Last come
// the probes, extra calls that time one layer alone.

// acc sums durations under string keys; replay workers share one.
type acc struct {
	mu  sync.Mutex
	sum map[string]time.Duration
	n   map[string]int
}

func newAcc() *acc {
	return &acc{sum: make(map[string]time.Duration), n: make(map[string]int)}
}

func (a *acc) add(key string, d time.Duration) {
	a.mu.Lock()
	a.sum[key] += d
	a.n[key]++
	a.mu.Unlock()
}

func (a *acc) total(key string) time.Duration { return a.sum[key] }

// meanUs is the mean duration under key in microseconds, 0 when nothing was
// recorded there.
func (a *acc) meanUs(key string) float64 {
	if a.n[key] == 0 {
		return 0
	}
	return float64(a.sum[key].Nanoseconds()) / 1e3 / float64(a.n[key])
}

// per divides a duration by a count of events, in nanoseconds per event.
func per(d time.Duration, events int64) float64 {
	if events == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(events)
}

func pointID(p sweep.Point) string {
	return fmt.Sprintf("%d/n%d/%s", p.Kernel, p.N, p.Config())
}

// layerOf says which layer a kernel's Source and Ref calls land in: the
// annotated-Go kernels are lowered and interpreted by gofront, the others
// are templates and hand-written references in pbbs.
func layerOf(k *pbbs.Kernel) string {
	if k.Lang == pbbs.LangGo {
		return "gofront"
	}
	return "pbbs"
}

// metricsOf maps a machine result to the sweep's metrics, as
// sweep.Engine.Measure does.
func metricsOf(mr *machine.Result, simNs int64) sweep.Metrics {
	return sweep.Metrics{
		Instructions: mr.Instructions, Cycles: mr.Cycles,
		IPC:         float64(mr.Instructions) / float64(mr.Cycles),
		FetchCycles: mr.FetchDone, RetireCycles: mr.RetireDone,
		Sections:    len(mr.Sections),
		RegRequests: mr.RegRequests, MemRequests: mr.MemRequests,
		CreateMessages: mr.CreateMessages, RequestHops: mr.RequestHops,
		ResponseMessages: mr.ResponseMessages, DMHAnswers: mr.DMHAnswers,
		NocMessages: mr.NocMessages(), Checksum: mr.RAX,
		SimNs: simNs, NsPerCycle: float64(simNs) / float64(mr.Cycles),
	}
}

// heapDelta runs f and returns the heap bytes and objects allocated
// meanwhile. It is only meaningful while nothing else runs.
func heapDelta(f func()) (nbytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// machineConfig is the simulated chip of a grid point, as
// sweep.Engine.Measure configures it.
func machineConfig(p sweep.Point) (machine.Config, error) {
	net, err := sweep.MakeNet(p.Topology, p.Cores)
	return machine.Config{
		Cores: p.Cores, Net: net, CreateLatency: 2,
		Shortcut: p.Shortcut, MaxSectionsPerCore: p.MaxSections,
	}, err
}

// replayPoint measures one grid point the way sweep.Engine.Measure does on
// a cache miss without a pool, one span per call into a layer. The record
// has no content key: deriving it is unexported, so callers take the key
// from the engine's own record of the same point. runAllocs, when non-nil,
// receives the heap objects Machine.Run allocated (single-goroutine replays
// only).
func replayPoint(t *tracer, a *acc, parent, track int, p sweep.Point, runAllocs *uint64) (sweep.Record, error) {
	rec := sweep.Record{Point: p}
	id := pointID(p)
	k, err := pbbs.ByID(p.Kernel)
	if err != nil {
		return rec, err
	}
	var src string
	t.timed(parent, track, layerOf(k), "Kernel.Source", id, func() { src, err = k.Source(p.N) })
	if err != nil {
		return rec, err
	}
	var prog *isa.Program
	a.add("compile_fork", t.timed(parent, track, "minic", "minic.Compile fork", id, func() { prog, err = minic.Compile(src, minic.ModeFork) }))
	if err != nil {
		return rec, err
	}
	var in pbbs.Inputs
	a.add("gen", t.timed(parent, track, "pbbs", "Kernel.Gen", id, func() { in = k.Gen(p.N, p.Seed) }))
	cfg, err := machineConfig(p)
	if err != nil {
		return rec, err
	}
	var sim *machine.Machine
	dNew := t.timed(parent, track, "machine", "machine.New", id, func() { sim, err = machine.New(prog, cfg) })
	a.add(newMachineMetric(p.Cores), dNew)
	if err != nil {
		return rec, err
	}
	dInject := t.timed(parent, track, "backend", "backend.Inject", id, func() { err = backend.Inject(prog, sim.DMH(), in) })
	a.add("inject", dInject)
	if err != nil {
		return rec, err
	}
	var mr *machine.Result
	dRun := t.timed(parent, track, "machine", "Machine.Run", id, func() {
		run := func() { mr, err = sim.Run() }
		if runAllocs != nil {
			_, *runAllocs = heapDelta(run)
		} else {
			run()
		}
	})
	a.add("run", dRun)
	if err != nil {
		return rec, err
	}
	var want uint64
	dRef := t.timed(parent, track, layerOf(k), "Kernel.Ref", id, func() { want, err = k.Ref(p.N, in) })
	a.add("ref", dRef)
	if err != nil {
		return rec, fmt.Errorf("reference: %w", err)
	}
	if mr.RAX != want {
		return rec, fmt.Errorf("checksum %d, reference %d", mr.RAX, want)
	}
	rec.Metrics = metricsOf(mr, (dNew + dInject + dRun).Nanoseconds())
	return rec, nil
}

// baseRep runs a workload untraced, as its user would, and returns the
// instance and its second repetition. The first repetition of a process pays
// for growing the heap; a replay timed against it would look a third faster
// than the code it replays. fresh says the workload needs a new set-up per
// repetition.
func baseRep(c *config, setup func(*config) (instance, error), fresh bool) (instance, sample, error) {
	inst, err := setup(c)
	if err != nil {
		return nil, sample{}, err
	}
	if _, err := timedRep(inst); err != nil {
		inst.close()
		return nil, sample{}, err
	}
	if fresh {
		inst.close()
		if inst, err = setup(c); err != nil {
			return nil, sample{}, err
		}
	}
	base, err := timedRep(inst)
	if err != nil {
		inst.close()
		return nil, sample{}, err
	}
	return inst, base, nil
}

// setBase reports what the untraced repetition showed its user.
func setBase(lm layerMetrics, s sample) {
	lm.set("e2e.wall_s", s.wall.Seconds())
	lm.set("e2e.points_per_s", float64(s.points)/s.wall.Seconds())
	lm.set("e2e.alloc_mb", float64(s.alloc)/1e6)
	if rss, err := peakRSS(); err == nil {
		lm.set("e2e.peak_rss_mb", rss)
	}
	if s.counts.Cycles > 0 {
		lm.set("e2e.host_ns_per_cycle", per(s.wall, s.counts.Cycles))
		lm.set("e2e.sim_ipc", float64(s.counts.Instructions)/float64(s.counts.Cycles))
		lm.set("machine.cycles", float64(s.counts.Cycles))
		lm.set("machine.instructions", float64(s.counts.Instructions))
		lm.set("machine.sections", float64(s.counts.Sections))
		lm.set("machine.reg_requests", float64(s.counts.RegRequests))
		lm.set("machine.mem_requests", float64(s.counts.MemRequests))
		lm.set("noc.messages", float64(s.counts.NocMessages))
		lm.set("noc.request_hops", float64(s.counts.RequestHops))
	}
}

func setOverhead(lm layerMetrics, traced, base time.Duration) {
	lm.set("trace_overhead_pct", 100*(traced.Seconds()/base.Seconds()-1))
}

func setEngineStats(lm layerMetrics, engines ...*sweep.Engine) {
	var st sweep.Stats
	var pool machine.PoolStats
	for _, e := range engines {
		s := e.Stats()
		st.Hits += s.Hits
		st.Simulated += s.Simulated
		st.Coalesced += s.Coalesced
		st.Failures += s.Failures
		if e.Pool != nil {
			ps := e.Pool.Stats()
			pool.Hits += ps.Hits
			pool.Misses += ps.Misses
		}
	}
	lm.set("sweep.hits", float64(st.Hits))
	lm.set("sweep.simulated", float64(st.Simulated))
	lm.set("sweep.coalesced", float64(st.Coalesced))
	lm.set("sweep.failures", float64(st.Failures))
	lm.set("machine.pool_hits", float64(pool.Hits))
	lm.set("machine.pool_misses", float64(pool.Misses))
}

// setReplaySteps reports the per-call costs a point replay accumulated.
func setReplaySteps(lm layerMetrics, a *acc) {
	lm.set("minic.compile_fork_us_per_kernel", a.meanUs("compile_fork"))
	lm.set("pbbs.gen_us_per_point", a.meanUs("gen"))
	lm.set("pbbs.ref_us_per_point", a.meanUs("ref"))
	lm.set("backend.inject_us_per_point", a.meanUs("inject"))
	for _, cores := range []int{1, 16, 64, 3072} {
		if name := newMachineMetric(cores); a.n[name] > 0 {
			lm.set(name, a.meanUs(name))
		}
	}
}

// newMachineMetric names the cost of machine.New at a core count; replays
// accumulate under the metric's own name.
func newMachineMetric(cores int) string { return fmt.Sprintf("machine.new_us_c%d", cores) }

func setMachineRates(lm layerMetrics, run time.Duration, cycles, insts int64) {
	lm.set("machine.run_ns_per_cycle", per(run, cycles))
	lm.set("machine.run_ns_per_inst", per(run, insts))
}

// probeResetRunPoint is probeResetRun on a grid point.
func probeResetRunPoint(t *tracer, lm layerMetrics, p sweep.Point) error {
	k, err := pbbs.ByID(p.Kernel)
	if err != nil {
		return err
	}
	prog, err := k.Build(p.N, minic.ModeFork)
	if err != nil {
		return err
	}
	cfg, err := machineConfig(p)
	if err != nil {
		return err
	}
	return probeResetRun(t, lm, prog, k.Gen(p.N, p.Seed), cfg, pointID(p))
}

// probeResetRun times the warm path of the machine pool on one point:
// Get → Inject → Run → Put twice on one key; the second pass reuses the
// first's machine through Reset.
func probeResetRun(t *tracer, lm layerMetrics, prog *isa.Program, in pbbs.Inputs, cfg machine.Config, id string) error {
	pool := machine.NewPool()
	var second time.Duration
	var cycles int64
	for pass := 0; pass < 2; pass++ {
		var err error
		var mr *machine.Result
		second = t.timed(-1, 0, "machine", fmt.Sprintf("Pool.Get+Inject+Run+Put pass %d", pass+1), id, func() {
			var sim *machine.Machine
			if sim, err = pool.Get("probe", prog, cfg); err != nil {
				return
			}
			if err = backend.Inject(prog, sim.DMH(), in); err != nil {
				return
			}
			if mr, err = sim.Run(); err == nil {
				pool.Put("probe", sim)
			}
		})
		if err != nil {
			return fmt.Errorf("reset-run probe: %w", err)
		}
		cycles = mr.Cycles
	}
	if st := pool.Stats(); st.Hits != 1 || st.Misses != 1 {
		return fmt.Errorf("reset-run probe: pool did %+v, want one miss then one hit", st)
	}
	lm.set("machine.reset_run_ns_per_cycle", per(second, cycles))
	return nil
}

// probeFrontEnd times the compiler front end alone on every given kernel:
// gofront lowering at a size no earlier call has cached, minic parsing, and
// the instructions the compiler emits (exact).
func probeFrontEnd(t *tracer, lm layerMetrics, kernels []int, n int, mode minic.Mode) error {
	a := newAcc()
	var emitted int
	for _, id := range kernels {
		k, err := pbbs.ByID(id)
		if err != nil {
			return err
		}
		sz := k.ClampN(n)
		if k.Lang == pbbs.LangGo {
			// n+1 is a size nothing else in this process asks for, so this
			// call lowers and does not hit gofront's per-size cache.
			a.add("lower", t.timed(-1, 0, "gofront", "Kernel.Source uncached", k.Name, func() { _, err = k.Source(sz + 1) }))
			if err != nil {
				return err
			}
		}
		src, err := k.Source(sz)
		if err != nil {
			return err
		}
		a.add("parse", t.timed(-1, 0, "minic", "minic.Parse", k.Name, func() { _, err = minic.Parse(src) }))
		if err != nil {
			return err
		}
		prog, err := minic.Compile(src, mode)
		if err != nil {
			return err
		}
		emitted += len(prog.Text)
	}
	lm.set("gofront.lower_us_per_kernel", a.meanUs("lower"))
	lm.set("minic.parse_us_per_kernel", a.meanUs("parse"))
	lm.set("minic.insts_emitted", float64(emitted))
	return nil
}

// probeEmulator runs every given kernel untraced on the sequential emulator
// and reports its cost per instruction; the same instruction counts put the
// interpreted references of the annotated-Go kernels on a per-instruction
// footing.
func probeEmulator(t *tracer, lm layerMetrics, kernels []int, n int, seed uint64, mode minic.Mode) error {
	var emuTime, refTime time.Duration
	var emuInsts, refInsts int64
	for _, id := range kernels {
		k, err := pbbs.ByID(id)
		if err != nil {
			return err
		}
		sz := k.ClampN(n)
		prog, err := k.Build(sz, mode)
		if err != nil {
			return err
		}
		in := k.Gen(sz, seed)
		var res *backend.Result
		emuTime += t.timed(-1, 0, "emu", "Emulator.Run untraced", k.Name, func() { res, err = backend.NewEmulator().Run(prog, in, false) })
		if err != nil {
			return err
		}
		emuInsts += res.Instructions
		if k.Lang == pbbs.LangGo {
			refTime += t.timed(-1, 0, "gofront", "Kernel.Ref", k.Name, func() { _, err = k.Ref(sz, in) })
			if err != nil {
				return err
			}
			refInsts += res.Instructions
		}
	}
	lm.set("emu.ns_per_inst", per(emuTime, emuInsts))
	lm.set("gofront.interp_ns_per_inst", per(refTime, refInsts))
	return nil
}

// probeQueue times the standalone NoC delivery queue: Send then Deliver of
// messages between cores of an 8×8 mesh.
func probeQueue(t *tracer, lm layerMetrics) {
	const msgs = 1 << 16
	net := noc.NewMesh(8, 8, 1)
	q := noc.NewQueue()
	delivered := 0
	d := t.timed(-1, 0, "machine", "noc.Queue Send+Deliver", "", func() {
		for i := 0; i < msgs; i++ {
			q.Send(net, i%64, (i*7)%64, int64(i/8), i)
			if i%8 == 7 {
				delivered += len(q.Deliver(int64(i / 8)))
			}
		}
		delivered += len(q.Deliver(1 << 40))
	})
	if delivered == msgs {
		lm.set("noc.queue_ns_per_msg", per(d, msgs))
	}
}

// ---------------------------------------------------------------- sweep_cold

func tracedSweepCold(c *config, t *tracer, lm layerMetrics) error {
	inst, base, err := baseRep(c, setupSweepCold, true)
	if err != nil {
		return err
	}
	sc := inst.(*sweepCold)
	oracle := sc.recs
	setEngineStats(lm, sc.eng)
	sc.close()
	setBase(lm, base)

	// The replay: the grid's points over nproc goroutines, as the engine's
	// worker pool measures them, with the records written in grid order.
	dir, err := c.tempDir("replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(dir, "out.jsonl"))
	if err != nil {
		return err
	}
	defer out.Close()
	jw := sweep.NewJSONLWriter(out)
	pts, err := c.grid().Points()
	if err != nil {
		return err
	}
	a := newAcc()
	recs := make([]sweep.Record, len(pts))
	errs := make([]error, len(pts))
	ready := make([]chan struct{}, len(pts))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	runtime.GC() // as before a timed repetition
	start := time.Now()
	for w := 0; w < c.nproc; w++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			root := t.begin(-1, track, "bench", "replay worker", "")
			for i := range jobs {
				id := pointID(pts[i])
				ps := t.begin(root, track, "sweep", "measure one point", id)
				recs[i], errs[i] = replayPoint(t, a, ps, track, pts[i], nil)
				if errs[i] == nil && i < len(oracle) {
					recs[i].Key = oracle[i].Key
					a.add("put", t.timed(ps, track, "sweep", "Cache.Put", id, func() { errs[i] = cache.Put(recs[i].Key, &recs[i].Metrics) }))
				}
				t.end(ps)
				close(ready[i])
			}
			t.end(root)
		}(w)
	}
	go func() {
		for i := range pts {
			jobs <- i
		}
		close(jobs)
	}()
	var writeErr error
	for i := range pts {
		<-ready[i]
		if errs[i] == nil && writeErr == nil {
			a.add("jsonl", t.timed(-1, c.nproc, "sweep", "JSONLWriter.Write", pointID(pts[i]), func() { writeErr = jw.Write(recs[i]) }))
		}
	}
	wg.Wait()
	setOverhead(lm, time.Since(start), base.wall)
	if writeErr != nil {
		return writeErr
	}
	c.attempt(len(pts))
	for i := range pts {
		switch {
		case errs[i] != nil:
			c.fail("sweep_cold replay: %s: %v", pointID(pts[i]), errs[i])
		case i < len(oracle) && recs[i].Metrics.StripTiming() != oracle[i].Metrics.StripTiming():
			c.fail("sweep_cold replay: %s differs from the engine's record", pointID(pts[i]))
		}
	}
	var cycles, insts int64
	for _, r := range recs {
		cycles, insts = cycles+r.Cycles, insts+r.Instructions
	}
	setReplaySteps(lm, a)
	setMachineRates(lm, a.total("run"), cycles, insts)
	lm.set("sweep.cache_put_us", a.meanUs("put"))
	lm.set("sweep.jsonl_write_us_per_record", a.meanUs("jsonl"))

	t.setProbing(true)
	if err := probeEngine(c, t, lm, pts); err != nil {
		return err
	}
	// The pool's warm path, on the grid's first kernel at its widest.
	p := pts[0]
	p.Cores = c.sz.cores[len(c.sz.cores)-1]
	if err := probeResetRunPoint(t, lm, p); err != nil {
		return err
	}
	if err := probeFrontEnd(t, lm, c.sz.kernels, c.sz.n, minic.ModeFork); err != nil {
		return err
	}
	if err := probeEmulator(t, lm, c.sz.kernels, c.sz.n, c.seed, minic.ModeFork); err != nil {
		return err
	}
	var cv time.Duration
	for _, id := range c.sz.kernels {
		k, err := pbbs.ByID(id)
		if err != nil {
			return err
		}
		cv += t.timed(-1, 0, "backend", "CrossValidate emulator vs machine", k.Name, func() { _, err = k.CrossValidate(c.sz.n, c.seed, 16) })
		if err != nil {
			return fmt.Errorf("cross-validation: %w", err)
		}
	}
	lm.set("backend.crossvalidate_ms", float64(cv.Microseconds())/1e3)
	probeQueue(t, lm)
	return nil
}

// probeEngine times sweep.Engine.Measure as a whole, one point at a time on
// one goroutine: cold against an empty cache, then warm against the cache
// the cold pass filled; then the warm path's known parts alone, so that what
// is left over is the engine's own work (mostly hashing the content key).
func probeEngine(c *config, t *tracer, lm layerMetrics, pts []sweep.Point) error {
	dir, err := c.tempDir("engine")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.NewCache(dir)
	if err != nil {
		return err
	}
	eng := &sweep.Engine{Cache: cache, Workers: 1}
	var cold time.Duration
	var simNs int64
	keys := make([]string, len(pts))
	for i, p := range pts {
		var rec sweep.Record
		cold += t.timed(-1, 0, "sweep", "Engine.Measure cold", pointID(p), func() { rec = eng.Measure(p) })
		if rec.Err != "" {
			return fmt.Errorf("Engine.Measure %s: %s", pointID(p), rec.Err)
		}
		simNs += rec.SimNs
		keys[i] = rec.Key
	}
	lm.set("sweep.measure_cold_ms_per_point", float64(cold.Microseconds())/1e3/float64(len(pts)))
	lm.set("sweep.machine_share", float64(simNs)/float64(cold.Nanoseconds()))
	return probeWarm(t, lm, eng, pts, keys)
}

// probeWarm times the engine's warm path on points whose records are in the
// engine's cache under keys.
func probeWarm(t *tracer, lm layerMetrics, eng *sweep.Engine, pts []sweep.Point, keys []string) error {
	var warm, build, gen, get time.Duration
	for i, p := range pts {
		var rec sweep.Record
		warm += t.timed(-1, 0, "sweep", "Engine.Measure warm", pointID(p), func() { rec = eng.Measure(p) })
		if rec.Err != "" {
			return fmt.Errorf("Engine.Measure %s: %s", pointID(p), rec.Err)
		}
		k, err := pbbs.ByID(p.Kernel)
		if err != nil {
			return err
		}
		build += t.timed(-1, 0, "minic", "Kernel.Build fork", pointID(p), func() { _, err = k.Build(p.N, minic.ModeFork) })
		if err != nil {
			return err
		}
		gen += t.timed(-1, 0, "pbbs", "Kernel.Gen", pointID(p), func() { k.Gen(p.N, p.Seed) })
		var hit bool
		get += t.timed(-1, 0, "sweep", "Cache.Get", pointID(p), func() { _, hit = eng.Cache.Get(keys[i]) })
		if !hit {
			return fmt.Errorf("Cache.Get %s: miss on a key the engine just stored", pointID(p))
		}
	}
	n := int64(len(pts))
	lm.set("sweep.measure_warm_us_per_point", per(warm, n)/1e3)
	lm.set("sweep.cache_get_us", per(get, n)/1e3)
	lm.set("sweep.key_residual_us_per_point", per(warm-build-gen-get, n)/1e3)
	return nil
}

// -------------------------------------------------------------- machine_bign

func tracedMachineBigN(c *config, t *tracer, lm layerMetrics) error {
	inst, base, err := baseRep(c, setupMachineBigN, false)
	if err != nil {
		return err
	}
	setBase(lm, base)
	setEngineStats(lm, inst.(*machineBigN).eng)
	p, _, err := c.bigPoint(base.seed) // the input the base repetition sorted
	if err != nil {
		return err
	}

	a := newAcc()
	var runAllocs uint64
	runtime.GC()
	start := time.Now()
	ps := t.begin(-1, 0, "sweep", "measure one point", pointID(p))
	rec, err := replayPoint(t, a, ps, 0, p, &runAllocs)
	t.end(ps)
	setOverhead(lm, time.Since(start), base.wall)
	c.attempt(1)
	if err != nil {
		c.fail("machine_bign replay: %v", err)
		return nil
	}
	var replayed counts
	replayed.addRecord(rec)
	if !replayed.equal(base.counts) {
		c.fail("machine_bign replay: counts differ from the engine's")
	}
	setReplaySteps(lm, a)
	setMachineRates(lm, a.total("run"), rec.Cycles, rec.Instructions)
	lm.set("machine.allocs_per_run", float64(runAllocs))

	t.setProbing(true)
	return probeResetRunPoint(t, lm, p)
}

// ----------------------------------------------------------------- sum_paper

// errPct is the distance of a measured completion time from the paper's
// closed form, in percent of the model.
func errPct(measured, model int64) float64 {
	d := measured - model
	if d < 0 {
		d = -d
	}
	return 100 * float64(d) / float64(model)
}

func tracedSumPaper(c *config, t *tracer, lm layerMetrics) error {
	inst, base, err := baseRep(c, setupSumPaper, false)
	if err != nil {
		return err
	}
	sp := inst.(*sumPaper)
	setBase(lm, base)
	// The model is unvalidated beyond this one example: the paper gives
	// closed forms for the sum reduction only, and the machine retires far
	// later than the paper's idealised chip. Report it as it is.
	lm.set("e2e.fetch_err_pct", errPct(base.counts.FetchDone, analytic.FetchTime(c.sz.calibN)))
	lm.set("e2e.retire_err_pct", errPct(base.counts.RetireDone, analytic.RetireTime(c.sz.calibN)))

	a := newAcc()
	var replayed counts
	var calibAllocs uint64
	runtime.GC()
	start := time.Now()
	for _, sc := range sp.cases {
		id := fmt.Sprintf("sum/n%d/c%d", sc.n, sc.cores)
		var prog *isa.Program
		t.timed(-1, 0, "progs", "progs.BuildSumFork", id, func() { prog, err = progs.BuildSumFork(sc.vec) })
		if err != nil {
			return err
		}
		var sim *machine.Machine
		a.add(newMachineMetric(sc.cores), t.timed(-1, 0, "machine", "machine.New", id, func() {
			sim, err = machine.New(prog, machine.DefaultConfig(sc.cores))
		}))
		if err != nil {
			return err
		}
		var mr *machine.Result
		a.add("run", t.timed(-1, 0, "machine", "Machine.Run", id, func() {
			_, allocs := heapDelta(func() { mr, err = sim.Run() })
			if sc.n == c.sz.calibN {
				calibAllocs = allocs
			}
		}))
		if err != nil {
			return err
		}
		replayed.addResult(mr)
		if sc.n == c.sz.calibN {
			replayed.FetchDone, replayed.RetireDone = mr.FetchDone, mr.RetireDone
		}
	}
	setOverhead(lm, time.Since(start), base.wall)
	c.attempt(1)
	if !replayed.equal(base.counts) {
		c.fail("sum_paper replay: counts differ from the untraced repetition's")
	}
	setReplaySteps(lm, a)
	setMachineRates(lm, a.total("run"), replayed.Cycles, replayed.Instructions)
	lm.set("machine.allocs_per_run", float64(calibAllocs))

	t.setProbing(true)
	calib := sp.cases[c.sz.calibN]
	return probeResetRun(t, lm, calib.prog, nil, machine.DefaultConfig(calib.cores), fmt.Sprintf("sum/n%d/c%d", calib.n, calib.cores))
}

// ------------------------------------------------------------------ ilp_fig7

func tracedILP(c *config, t *tracer, lm layerMetrics) error {
	inst, base, err := baseRep(c, setupILP, false)
	if err != nil {
		return err
	}
	fi := inst.(*ilpFig7)
	setBase(lm, base)

	// The replay of pbbs.Kernel.MeasureILP, kernel by kernel on one
	// goroutine, as MeasureAll with one worker runs them.
	a := newAcc()
	var replayed []ilpCount
	var insts int64
	var emuAlloc, ilpAlloc uint64
	var statsTime, encodeTime time.Duration
	runtime.GC()
	start := time.Now()
	for _, k := range fi.kernels {
		n := k.ClampN(c.sz.ilpN)
		ps := t.begin(-1, 0, "pbbs", "Kernel.MeasureILP", k.Name)
		var src string
		t.timed(ps, 0, layerOf(k), "Kernel.Source", k.Name, func() { src, err = k.Source(n) })
		if err != nil {
			return err
		}
		var prog *isa.Program
		a.add("compile_call", t.timed(ps, 0, "minic", "minic.Compile call", k.Name, func() { prog, err = minic.Compile(src, minic.ModeCall) }))
		if err != nil {
			return err
		}
		var in pbbs.Inputs
		a.add("gen", t.timed(ps, 0, "pbbs", "Kernel.Gen", k.Name, func() { in = k.Gen(n, c.seed) }))
		var res *backend.Result
		a.add("traced", t.timed(ps, 0, "emu", "Emulator.Run traced", k.Name, func() {
			nb, _ := heapDelta(func() { res, err = backend.NewEmulator().Run(prog, in, true) })
			emuAlloc += nb
		}))
		if err != nil {
			return err
		}
		var want uint64
		a.add("ref", t.timed(ps, 0, layerOf(k), "Kernel.Ref", k.Name, func() { want, err = k.Ref(n, in) }))
		if err != nil {
			return err
		}
		c.attempt(1)
		if res.RAX != want {
			c.fail("ilp_fig7 replay: %s: checksum %d, reference %d", k.Name, res.RAX, want)
		}
		var seq, par ilp.Result
		a.add("seq", t.timed(ps, 0, "ilp", "ilp.Analyze sequential", k.Name, func() {
			nb, _ := heapDelta(func() { seq = ilp.Analyze(res.Trace, ilp.Sequential()) })
			ilpAlloc += nb
		}))
		a.add("par", t.timed(ps, 0, "ilp", "ilp.Analyze parallel", k.Name, func() {
			nb, _ := heapDelta(func() { par = ilp.Analyze(res.Trace, ilp.Parallel()) })
			ilpAlloc += nb
		}))
		t.end(ps)
		insts += int64(res.Trace.Len())
		replayed = append(replayed, ilpCount{Kernel: k.ID, Instructions: res.Trace.Len(), SeqILP: seq.ILP, ParILP: par.ILP})

		// Two probes while this kernel's trace is still in memory. They are
		// not part of MeasureILP, so their time is taken out of the replay's
		// wall time below.
		var size int
		t.setProbing(true)
		statsTime += t.timed(-1, 0, "trace", "Trace.ComputeStats", k.Name, func() { size = res.Trace.ComputeStats().Instructions })
		encodeTime += t.timed(-1, 0, "trace", "Trace.Encode", k.Name, func() { size += len(res.Trace.Encode()) })
		t.setProbing(false)
		if size == 0 {
			return fmt.Errorf("%s: empty trace", k.Name)
		}
	}
	setOverhead(lm, time.Since(start)-statsTime-encodeTime, base.wall)
	c.attempt(1)
	if !(counts{ILP: replayed}).equal(counts{ILP: base.counts.ILP}) {
		c.fail("ilp_fig7 replay: Fig. 7 values differ from pbbs.MeasureAll's")
	}
	lm.set("minic.compile_call_us_per_kernel", a.meanUs("compile_call"))
	lm.set("pbbs.gen_us_per_point", a.meanUs("gen"))
	lm.set("pbbs.ref_us_per_point", a.meanUs("ref"))
	lm.set("emu.traced_ns_per_inst", per(a.total("traced"), insts))
	lm.set("emu.trace_alloc_bytes_per_inst", float64(emuAlloc)/float64(insts))
	lm.set("trace.stats_ns_per_inst", per(statsTime, insts))
	lm.set("trace.encode_ns_per_inst", per(encodeTime, insts))
	lm.set("ilp.analyze_seq_ns_per_inst", per(a.total("seq"), insts))
	lm.set("ilp.analyze_par_ns_per_inst", per(a.total("par"), insts))
	lm.set("ilp.alloc_bytes_per_inst", float64(ilpAlloc)/float64(insts))

	t.setProbing(true)
	if err := probeFrontEnd(t, lm, allKernelIDs(), c.sz.ilpN, minic.ModeCall); err != nil {
		return err
	}
	return probeEmulator(t, lm, allKernelIDs(), c.sz.ilpN, c.seed, minic.ModeCall)
}

// ---------------------------------------------------------------- serve_warm

func durationsMs(reqs []served, f func(served) time.Duration) []float64 {
	out := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		if r.err == nil {
			out = append(out, float64(f(r).Microseconds())/1e3)
		}
	}
	return out
}

func tracedServeWarm(c *config, t *tracer, lm layerMetrics) error {
	inst, base, err := baseRep(c, setupServeWarm, false)
	if err != nil {
		return err
	}
	sw := inst.(*serveWarm)
	defer sw.close()
	setBase(lm, base)
	// Latencies are pooled over both untraced repetitions: a p95 needs ten
	// samples beyond it, and one repetition of 100 requests has five.
	total := durationsMs(sw.reqs, func(r served) time.Duration { return r.total })
	lm.set("e2e.req_p50_ms", median(total))
	if p95, err := percentile(total, 95); err == nil {
		lm.set("e2e.req_p95_ms", p95)
	}
	lm.set("e2e.ttfb_p50_ms", median(durationsMs(sw.reqs, func(r served) time.Duration { return r.ttfb })))
	lm.set("server.submit_ms_p50", median(durationsMs(sw.reqs, func(r served) time.Duration { return r.submit })))
	done := len(total)

	// What one request costs inside the server cannot be spanned from
	// outside it, so the same sweeps are replayed in-process on the serving
	// engine right here: Engine.Run warm, and its known parts by hand. The
	// warm path does not depend on the topology, so one set of sums stands
	// for every request: a request's share is the sum over all topologies'
	// points divided by the number of topologies.
	a := newAcc()
	for _, topo := range c.sz.topos {
		spec := c.grid(topo)
		pts, err := spec.Points()
		if err != nil {
			return err
		}
		for round := 0; round < 5; round++ {
			start := time.Now()
			if _, err := sw.eng.Run(spec, nil); err != nil {
				return err
			}
			a.add("run", time.Since(start))
		}
		for _, p := range pts {
			k, err := pbbs.ByID(p.Kernel)
			if err != nil {
				return err
			}
			var src string
			start := time.Now()
			if src, err = k.Source(p.N); err != nil {
				return err
			}
			a.add("source_"+layerOf(k), time.Since(start))
			start = time.Now()
			if _, err = minic.Compile(src, minic.ModeFork); err != nil {
				return err
			}
			a.add("compile_fork", time.Since(start))
			start = time.Now()
			k.Gen(p.N, p.Seed)
			a.add("gen", time.Since(start))
			start = time.Now()
			if _, ok := sw.eng.Cache.Get(sw.oracle[p].Key); !ok {
				return fmt.Errorf("Cache.Get %s: miss in a cache set-up filled", pointID(p))
			}
			a.add("get", time.Since(start))
		}
	}
	engineRun := a.total("run") / time.Duration(a.n["run"])
	lm.set("server.overhead_ms_per_req", median(total)-float64(engineRun.Microseconds())/1e3)
	lm.set("minic.compile_fork_us_per_kernel", a.meanUs("compile_fork"))
	lm.set("pbbs.gen_us_per_point", a.meanUs("gen"))

	// The traced phase: the same closed loop with a span around each
	// request. Under each go the replay's durations, as the spans the server
	// would have recorded. The hand-timed parts are one goroutine's total
	// over a request's points; the engine spreads the points over nproc
	// workers, so their part of Engine.Run's wall time is that total divided
	// by nproc.
	part := func(key string) time.Duration {
		return a.total(key) / time.Duration(len(c.sz.topos)*c.nproc)
	}
	runtime.GC()
	start := time.Now()
	reqs := sw.phase(c.nproc)
	setOverhead(lm, time.Since(start), base.wall)
	sw.check(reqs)
	for i, rq := range reqs {
		if rq.err != nil {
			continue
		}
		done++
		track := i % c.nproc
		id := fmt.Sprintf("req%d/%s", i, rq.topo)
		rs := t.add(-1, track, "server", "POST /v1/sweeps + GET results", id, time.Time{}, rq.total)
		es := t.add(rs, track, "sweep", "Engine.Run warm (replayed in-process)", id, time.Time{}, min(engineRun, rq.total))
		t.add(es, track, "gofront", "Kernel.Source", id, time.Time{}, part("source_gofront"))
		t.add(es, track, "pbbs", "Kernel.Source", id, time.Time{}, part("source_pbbs"))
		t.add(es, track, "minic", "minic.Compile fork", id, time.Time{}, part("compile_fork"))
		t.add(es, track, "pbbs", "Kernel.Gen", id, time.Time{}, part("gen"))
		t.add(es, track, "sweep", "Cache.Get", id, time.Time{}, part("get"))
	}
	lm.set("server.jobs_done", float64(done))
	lm.set("server.http_non2xx", float64(sw.non2xx.Load()))

	t.setProbing(true)
	pts, err := c.grid().Points()
	if err != nil {
		return err
	}
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = sw.oracle[p].Key
	}
	if err := probeWarm(t, lm, sw.eng, pts, keys); err != nil {
		return err
	}
	setEngineStats(lm, sw.eng)
	return nil
}

// --------------------------------------------------------------- fabric_cold

// fabricTap sits in one worker's HTTP transport. It counts the worker's
// RPCs and, while a run is being traced, turns them into that worker's
// track: a span per RPC, and between a lease that granted points and the
// report that answers it a span for the batch, holding the machine time the
// worker's engine measured (the records' SimNs).
type fabricTap struct {
	base  http.RoundTripper
	t     *tracer
	track int
	live  *atomic.Bool // a traced run is in progress
	root  *atomic.Int64
	rpcs  *atomic.Int64
	// firstGrant receives the time of the first lease that granted points.
	firstGrant *atomic.Int64

	batchStart time.Time // one RPC at a time per worker: no lock
}

func (ft *fabricTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if !ft.live.Load() {
		return ft.base.RoundTrip(req)
	}
	var reqBody []byte
	if req.Body != nil {
		reqBody, _ = io.ReadAll(req.Body)
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(reqBody))
	}
	parent := int(ft.root.Load())
	start := time.Now()
	id := ft.t.begin(parent, ft.track, "fabric", "POST "+req.URL.Path, "")
	resp, err := ft.base.RoundTrip(req)
	var respBody []byte
	if err == nil {
		respBody, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(respBody))
	}
	ft.t.end(id)
	ft.rpcs.Add(1)
	switch req.URL.Path {
	case fabric.PathLease:
		var grant fabric.LeaseResponse
		if json.Unmarshal(respBody, &grant) == nil && len(grant.Points) > 0 {
			ft.batchStart = time.Now()
			ft.firstGrant.CompareAndSwap(0, ft.batchStart.UnixNano())
		}
	case fabric.PathReport:
		var rep fabric.ReportRequest
		if json.Unmarshal(reqBody, &rep) == nil && !ft.batchStart.IsZero() {
			var simNs int64
			for _, r := range rep.Results {
				simNs += r.Record.SimNs
			}
			what := fmt.Sprintf("%d points", len(rep.Results))
			bs := ft.t.add(parent, ft.track, "sweep", "Worker measures a leased batch", what, ft.batchStart, start.Sub(ft.batchStart))
			ft.t.add(bs, ft.track, "machine", "machine time the worker's engine reports (SimNs)", what, ft.batchStart, time.Duration(simNs))
			ft.batchStart = time.Time{}
		}
	}
	return resp, err
}

func tracedFabricCold(c *config, t *tracer, lm layerMetrics) error {
	inst, base, err := baseRep(c, setupFabricCold, true)
	if err != nil {
		return err
	}
	inst.close()
	setBase(lm, base)

	// The taps are live from the workers' first RPC: a lease already in
	// flight when the run starts is then seen like any other.
	var live atomic.Bool
	var rpcs, firstGrant atomic.Int64
	roots := make([]atomic.Int64, c.nproc)
	for w := range roots {
		roots[w].Store(int64(t.begin(-1, w, "fabric", "worker: register, lease, measure, report, poll", "")))
	}
	live.Store(true)
	fc, err := newFabricCold(c, func(worker int, rt http.RoundTripper) http.RoundTripper {
		return &fabricTap{base: rt, t: t, track: worker, live: &live, root: &roots[worker], rpcs: &rpcs, firstGrant: &firstGrant}
	})
	if err != nil {
		return err
	}
	main := t.begin(-1, c.nproc, "bench", "Coordinator.Run (waits for the workers)", "")
	rpcs.Store(0)
	traced, err := timedRep(fc)
	live.Store(false)
	t.end(main)
	for w := range roots {
		t.end(int(roots[w].Load()))
	}
	stats := fc.coord.Stats()
	engines := []*sweep.Engine{fc.coord.Eng}
	engines = append(engines, fc.engines...)
	setEngineStats(lm, engines...)
	fc.close()
	if err != nil {
		return err
	}
	setOverhead(lm, traced.wall, base.wall)
	lm.set("fabric.rpcs_per_point", float64(rpcs.Load())/float64(max(traced.points, 1)))
	lm.set("fabric.leases_granted", float64(stats.Granted))
	lm.set("fabric.leases_expired", float64(stats.Expired))
	lm.set("fabric.duplicates", float64(stats.Duplicates))
	lm.set("fabric.local_drained", float64(stats.LocalPoints))

	// The same grid on one in-process engine with the same parallelism, cold:
	// the fabric's overhead is the ratio of the two throughputs.
	t.setProbing(true)
	eng := &sweep.Engine{Workers: c.nproc, Pool: machine.NewPool()}
	var recs []sweep.Record
	local := t.timed(-1, 0, "sweep", "Engine.Run cold, in-process", "", func() { recs, err = eng.Run(c.grid(), nil) })
	if err != nil {
		return err
	}
	lm.set("fabric.overhead_ratio", (float64(len(recs))/local.Seconds())/(float64(base.points)/base.wall.Seconds()))
	return probeFirstLease(c, t, lm)
}

// probeFirstLease measures how long a queued point waits for its first
// lease when the worker idles at the poll interval the coordinator suggests
// (LeaseTTL/5 = 1 s), which is what `repro worker` does without -poll.
// Anything from 0 to 1 s, by where in its sleep the worker is: informational.
func probeFirstLease(c *config, t *tracer, lm layerMetrics) error {
	dir, err := c.tempDir("lease")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.NewCache(dir)
	if err != nil {
		return err
	}
	coord := &fabric.Coordinator{Eng: &sweep.Engine{Cache: cache, Workers: 1}, Cache: cache, Log: discardLog}
	url, stop, err := listen(coord.Handler())
	if err != nil {
		return err
	}
	defer stop()
	var live atomic.Bool
	var rpcs, firstGrant, root atomic.Int64
	root.Store(-1)
	live.Store(true)
	client := &http.Client{Transport: &fabricTap{
		base: &http.Transport{}, t: t, track: 0, live: &live, root: &root, rpcs: &rpcs, firstGrant: &firstGrant,
	}}
	defer client.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &fabric.Worker{Coordinator: url, Name: "bench-default-poll", Client: client, Log: discardLog, Eng: &sweep.Engine{Workers: 1}}
		_ = w.Run(ctx)
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()
	for deadline := time.Now().Add(10 * time.Second); coord.Stats().Workers < 1; {
		if time.Now().After(deadline) {
			return fmt.Errorf("first-lease probe: the worker did not register within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	spec := c.grid(c.sz.topos[0])
	spec.Kernels, spec.Cores = spec.Kernels[:1], spec.Cores[:1]
	start := time.Now()
	_, err = coord.Run(spec, nil)
	live.Store(false)
	if err != nil {
		return err
	}
	if at := firstGrant.Load(); at != 0 {
		lm.set("fabric.first_lease_ms", float64(time.Unix(0, at).Sub(start).Microseconds())/1e3)
	}
	return nil
}
