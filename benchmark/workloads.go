package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// sizing is how big each workload is. The full sizes were chosen from
// measurements on a 2-core host (see README.md); quick shrinks everything
// so that `go test` can run all six workloads in seconds.
type sizing struct {
	kernels   []int // grid kernel IDs
	n         int   // grid dataset size
	cores     []int
	topos     []string
	bigKernel int // machine_bign: one paper-scale point
	bigN      int
	bigCores  int
	sumMaxN   int // sum_paper runs 5·2ⁿ elements for n = 0..sumMaxN
	calibN    int // the paper's calibration point for the accuracy metrics
	ilpN      int
	phaseReqs int // serve_warm requests per repetition
	minReps   int
	setups    int // set-ups timed per run when state outlives a repetition
}

func allKernelIDs() []int {
	var ids []int
	for _, k := range pbbs.Kernels() {
		ids = append(ids, k.ID)
	}
	return ids
}

func fullSizing() sizing {
	return sizing{
		kernels: allKernelIDs(), n: 64, cores: []int{1, 16, 64},
		topos:     []string{sweep.TopoCrossbar, sweep.TopoMesh},
		bigKernel: 2, bigN: 512, bigCores: 64,
		sumMaxN: 9, calibN: 8, ilpN: 128,
		phaseReqs: 100, minReps: 3, setups: 3,
	}
}

func quickSizing() sizing {
	return sizing{
		kernels: []int{2, 10, 11}, n: 16, cores: []int{1, 16, 64},
		topos:     []string{sweep.TopoCrossbar, sweep.TopoMesh},
		bigKernel: 2, bigN: 32, bigCores: 64,
		sumMaxN: 4, calibN: 4, ilpN: 16,
		phaseReqs: 20, minReps: 1, setups: 1,
	}
}

// config is one invocation of the benchmark.
type config struct {
	seed    uint64
	seconds float64
	nproc   int
	workdir string
	sz      sizing
	exp     *expected

	mu        sync.Mutex
	attempted int
	failed    int
	dirSeq    int

	oracleOnce sync.Once
	oracle     []sweep.Record
	oracleErr  error
}

// attempt counts n operations whose outcome the benchmark checks.
func (c *config) attempt(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// fail counts one operation that came out wrong and says why (the first few
// times; a broken layer fails every point the same way).
func (c *config) fail(format string, args ...any) {
	c.mu.Lock()
	c.failed++
	n := c.failed
	c.mu.Unlock()
	if n <= 10 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
	}
}

// tempDir makes a fresh directory under the work directory, which is inside
// the checkout: the benchmark writes nowhere else.
func (c *config) tempDir(prefix string) (string, error) {
	c.mu.Lock()
	c.dirSeq++
	dir := filepath.Join(c.workdir, fmt.Sprintf("%s-%d-%d", prefix, os.Getpid(), c.dirSeq))
	c.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// grid is the sweep grid shared by sweep_cold, serve_warm and fabric_cold
// (G66 at full size): every kernel × one size × cores × topologies, shortcut
// on. topos narrows the topology axis for a served request.
func (c *config) grid(topos ...string) *sweep.Spec {
	if len(topos) == 0 {
		topos = c.sz.topos
	}
	return &sweep.Spec{
		Kernels: c.sz.kernels, Sizes: []int{c.sz.n}, Cores: c.sz.cores,
		Topologies: topos, Shortcut: []bool{true}, Seed: c.seed,
	}
}

// references generates every grid kernel's inputs from the seed and computes
// the checksum its simulation must produce.
func (c *config) references() (map[int]uint64, error) {
	refs := make(map[int]uint64, len(c.sz.kernels))
	for _, id := range c.sz.kernels {
		k, err := pbbs.ByID(id)
		if err != nil {
			return nil, err
		}
		n := k.ClampN(c.sz.n)
		want, err := k.Ref(n, k.Gen(n, c.seed))
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", k.Name, err)
		}
		refs[id] = want
	}
	return refs, nil
}

// checkRecords counts one operation per expected grid point and fails those
// that are missing, errored, or whose checksum is not the reference's.
func (c *config) checkRecords(what string, recs []sweep.Record, want int, refs map[int]uint64) {
	c.attempt(want)
	for i := len(recs); i < want; i++ {
		c.fail("%s: record %d of %d missing", what, i+1, want)
	}
	for _, r := range recs {
		switch {
		case r.Err != "":
			c.fail("%s: %s n=%d %s: %s", what, r.Name, r.N, r.Config(), r.Err)
		case r.Checksum != refs[r.Kernel]:
			c.fail("%s: %s n=%d %s: checksum %d, reference %d",
				what, r.Name, r.N, r.Config(), r.Checksum, refs[r.Kernel])
		}
	}
}

// sameOutcome compares a record with the oracle's for the same point.
// Records differ across runs only in their wall-clock fields.
func sameOutcome(a, b sweep.Record) bool {
	return a.Point == b.Point && a.Key == b.Key && a.Err == b.Err &&
		a.Metrics.StripTiming() == b.Metrics.StripTiming()
}

// checkAgainstOracle fails every record that differs from the in-process
// engine's record for the same grid position. It counts no new operations:
// checkRecords already counted these points.
func (c *config) checkAgainstOracle(what string, recs, oracle []sweep.Record) {
	for i, r := range recs {
		if i < len(oracle) && !sameOutcome(r, oracle[i]) {
			c.fail("%s: %s n=%d %s differs from the in-process oracle", what, r.Name, r.N, r.Config())
		}
	}
}

// sample is what one repetition yields; every end-to-end metric is a median
// over a run's samples.
type sample struct {
	wall  time.Duration
	alloc uint64 // bytes allocated during the repetition
	// work is how much the repetition got done, in the workload's unit of
	// work: simulated (or traced and analysed) instructions, except on
	// serve_warm, which simulates nothing and counts grid points served.
	// The unit is the one whose host cost moves least with the seed: a
	// simulation's cost follows its length, a served point's does not.
	work   int64
	points int // grid points, kernels or sizes completed
	// counts are the repetition's simulated-time statistics, which repeat
	// exactly and are compared with expected.json under seed.
	counts counts
	seed   uint64
}

// instance is a workload's state between set-up and close.
type instance interface {
	// rep runs one repetition, which the caller times. The function it
	// returns checks the outputs and reports the work done; the caller runs
	// it after the clock has stopped.
	rep() (verify func() (sample, error), err error)
	close()
}

// workload is one row of the README's table.
type workload struct {
	name string
	why  string
	// fresh says the workload needs untouched state for every repetition
	// (cold caches), so each repetition has its own timed set-up.
	fresh  bool
	setup  func(c *config) (instance, error)
	traced func(c *config, t *tracer, lm layerMetrics) error
}

var workloads = []workload{
	{
		name:  "sweep_cold",
		why:   "cold 66-point sweep grid through sweep.Engine.Run: many small machine runs, cache and JSONL write side",
		fresh: true, setup: setupSweepCold, traced: tracedSweepCold,
	},
	{
		name:  "machine_bign",
		why:   "one paper-scale point (quickSort n=512, 64 cores): long and narrow, the machine's per-cycle bookkeeping",
		setup: setupMachineBigN, traced: tracedMachineBigN,
	},
	{
		name:  "sum_paper",
		why:   "the paper's section 5 sum reduction for n=0..9 on up to 3072 cores: short and wide, and the accuracy reference",
		setup: setupSumPaper, traced: tracedSumPaper,
	},
	{
		name:  "ilp_fig7",
		why:   "Fig. 7 pipeline at n=128: compile, traced emulation, sequential and parallel ILP models; no machine at all",
		setup: setupILP, traced: tracedILP,
	},
	{
		name:  "serve_warm",
		why:   "closed loop of nproc HTTP clients re-requesting sweeps from a warm cache: zero simulations, the read side",
		setup: setupServeWarm, traced: tracedServeWarm,
	},
	{
		name:  "fabric_cold",
		why:   "the sweep_cold grid through a coordinator and nproc workers on loopback: lease, report and merge overhead",
		fresh: true, setup: setupFabricCold, traced: tracedFabricCold,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runResult is one untraced run of a workload: the samples behind every
// end-to-end metric.
type runResult struct {
	setups  []time.Duration
	samples []sample
}

// timedRep runs one repetition with the collector quiet at its start, so a
// repetition does not pay for its predecessor's garbage.
func timedRep(inst instance) (sample, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	verify, err := inst.rep()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return sample{}, err
	}
	s, err := verify()
	s.wall, s.alloc = wall, after.TotalAlloc-before.TotalAlloc
	return s, err
}

// run measures a workload for c.seconds: repetitions until the time is up,
// at least sz.minReps of them, each set-up timed.
func (w workload) run(c *config) (runResult, error) {
	var res runResult
	timedSetup := func() (instance, error) {
		start := time.Now()
		inst, err := w.setup(c)
		res.setups = append(res.setups, time.Since(start))
		return inst, err
	}
	inst, err := timedSetup()
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		if inst != nil { // nil after a set-up that failed
			inst.close()
		}
	}()
	// State that outlives a repetition is still set up several times, so
	// that setup_s is a median and not one sample.
	for i := 1; !w.fresh && i < c.sz.setups; i++ {
		inst.close()
		if inst, err = timedSetup(); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
	}
	var measured time.Duration
	budget := time.Duration(c.seconds * float64(time.Second))
	for rep := 0; rep < c.sz.minReps || measured < budget; rep++ {
		if w.fresh && rep > 0 {
			inst.close()
			if inst, err = timedSetup(); err != nil {
				return res, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
		}
		s, err := timedRep(inst)
		if err != nil {
			return res, fmt.Errorf("%s: repetition %d: %w", w.name, rep+1, err)
		}
		c.exp.check(c, w.name, s.seed, s.counts)
		res.samples = append(res.samples, s)
		measured += s.wall
	}
	return res, nil
}

var discardLog = slog.New(slog.DiscardHandler)

// ---------------------------------------------------------------- sweep_cold

type sweepCold struct {
	c    *config
	refs map[int]uint64
	dir  string
	out  *os.File
	eng  *sweep.Engine
	spec *sweep.Spec
	recs []sweep.Record // the last repetition's, for the traced run
}

func setupSweepCold(c *config) (instance, error) {
	refs, err := c.references()
	if err != nil {
		return nil, err
	}
	dir, err := c.tempDir("sweep")
	if err != nil {
		return nil, err
	}
	cache, err := sweep.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	out, err := os.Create(filepath.Join(dir, "out.jsonl"))
	if err != nil {
		return nil, err
	}
	return &sweepCold{
		c: c, refs: refs, dir: dir, out: out, spec: c.grid(),
		// The CLI's defaults: one measurement worker per CPU, machine pool on.
		eng: &sweep.Engine{Cache: cache, Workers: c.nproc, Pool: machine.NewPool()},
	}, nil
}

func (s *sweepCold) rep() (func() (sample, error), error) {
	jw := sweep.NewJSONLWriter(s.out)
	var writeErr error
	recs, err := s.eng.Run(s.spec, func(r sweep.Record) {
		if writeErr == nil {
			writeErr = jw.Write(r)
		}
	})
	if recs == nil && err != nil {
		return nil, err
	}
	if writeErr != nil {
		return nil, writeErr
	}
	s.recs = recs
	return func() (sample, error) { return s.check(recs) }, nil
}

// check verifies a cold run: every point simulated (none served from a
// cache that should be empty), every checksum right, and the JSONL file
// holding exactly the records returned.
func (s *sweepCold) check(recs []sweep.Record) (sample, error) {
	c := s.c
	pts, err := s.spec.Points()
	if err != nil {
		return sample{}, err
	}
	c.checkRecords("sweep_cold", recs, len(pts), s.refs)
	c.attempt(2)
	if st := s.eng.Stats(); st.Simulated != len(pts) || st.Hits != 0 {
		c.fail("sweep_cold: engine did %s, want every point simulated", st)
	}
	written, err := sweep.ReadFile(s.out.Name())
	if err != nil {
		return sample{}, err
	}
	if len(written) != len(recs) {
		c.fail("sweep_cold: JSONL holds %d records, engine returned %d", len(written), len(recs))
	} else {
		for i := range recs {
			if written[i] != recs[i] {
				c.fail("sweep_cold: JSONL record %d differs from the engine's", i)
				break
			}
		}
	}
	return sampleOf(c.seed, recs), nil
}

func (s *sweepCold) close() {
	s.out.Close()
	os.RemoveAll(s.dir)
}

// sampleOf sums the work a set of simulated records stands for.
func sampleOf(seed uint64, recs []sweep.Record) sample {
	s := sample{points: len(recs), seed: seed}
	for _, r := range recs {
		s.work += r.Instructions
		s.counts.addRecord(r)
	}
	return s
}

// -------------------------------------------------------------- machine_bign

type machineBigN struct {
	c    *config
	eng  *sweep.Engine
	k    *pbbs.Kernel
	reps int
	want map[uint64]uint64 // input seed → reference checksum
}

// bigPoint is the paper-scale point for one input seed.
func (c *config) bigPoint(seed uint64) (sweep.Point, *pbbs.Kernel, error) {
	k, err := pbbs.ByID(c.sz.bigKernel)
	if err != nil {
		return sweep.Point{}, nil, err
	}
	return sweep.Point{
		Kernel: k.ID, Name: k.Name, N: k.ClampN(c.sz.bigN), Cores: c.sz.bigCores,
		Topology: sweep.TopoCrossbar, Shortcut: true, Seed: seed,
	}, k, nil
}

// reference computes (once) the checksum the point must produce on the
// input generated from seed.
func (m *machineBigN) reference(seed uint64) (uint64, error) {
	if want, ok := m.want[seed]; ok {
		return want, nil
	}
	n := m.k.ClampN(m.c.sz.bigN)
	want, err := m.k.Ref(n, m.k.Gen(n, seed))
	if err == nil {
		m.want[seed] = want
	}
	return want, err
}

func setupMachineBigN(c *config) (instance, error) {
	_, k, err := c.bigPoint(c.seed)
	if err != nil {
		return nil, err
	}
	// No cache and no pool: every repetition constructs and runs the machine.
	m := &machineBigN{c: c, eng: &sweep.Engine{Workers: 1}, k: k, want: make(map[uint64]uint64)}
	for rep := 0; rep < c.sz.minReps; rep++ {
		if _, err := m.reference(c.seed + uint64(rep)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// rep simulates the point on a fresh input: repetition r of a run sorts the
// array generated from seed+r. One quickSort input is one recursion shape,
// and the machine's host cost per instruction moves by ±7 % with it; a run's
// median over three inputs moves much less than any one of them.
func (m *machineBigN) rep() (func() (sample, error), error) {
	seed := m.c.seed + uint64(m.reps)
	m.reps++
	p, _, err := m.c.bigPoint(seed)
	if err != nil {
		return nil, err
	}
	recs := []sweep.Record{m.eng.Measure(p)}
	return func() (sample, error) {
		want, err := m.reference(seed)
		if err != nil {
			return sample{}, err
		}
		m.c.checkRecords("machine_bign", recs, 1, map[int]uint64{p.Kernel: want})
		return sampleOf(seed, recs), nil
	}, nil
}

func (m *machineBigN) close() {}

// ----------------------------------------------------------------- sum_paper

// sumCase is the paper's sum reduction over 5·2ⁿ seeded elements.
type sumCase struct {
	n     int
	cores int
	vec   []uint64
	prog  *isa.Program
	want  uint64
}

type sumPaper struct {
	c     *config
	cases []sumCase
}

// buildSumCases assembles the fork version of sum for n = 0..maxN. The
// vector's values come from the seed; the program's control flow depends
// only on its length, so simulated time is the same for every seed.
func buildSumCases(seed uint64, maxN int) ([]sumCase, error) {
	rng := rand.New(rand.NewPCG(seed, 0x73756d))
	var cases []sumCase
	for n := 0; n <= maxN; n++ {
		vec := make([]uint64, analytic.Elements(n))
		var want uint64
		for i := range vec {
			vec[i] = uint64(rng.Uint32())
			want += vec[i]
		}
		prog, err := progs.BuildSumFork(vec)
		if err != nil {
			return nil, fmt.Errorf("sum n=%d: %w", n, err)
		}
		// One core per section plus the loader's, so that placement never
		// limits the run: the paper's "as many cores as sections".
		cases = append(cases, sumCase{n: n, cores: int(analytic.Sections(n)) + 1, vec: vec, prog: prog, want: want})
	}
	return cases, nil
}

func setupSumPaper(c *config) (instance, error) {
	cases, err := buildSumCases(c.seed, c.sz.sumMaxN)
	if err != nil {
		return nil, err
	}
	return &sumPaper{c: c, cases: cases}, nil
}

func (s *sumPaper) rep() (func() (sample, error), error) {
	results := make([]*machine.Result, len(s.cases))
	for i, sc := range s.cases {
		r, err := machine.RunProgram(sc.prog, sc.cores)
		if err != nil {
			return nil, fmt.Errorf("sum n=%d: %w", sc.n, err)
		}
		results[i] = r
	}
	return func() (sample, error) { return s.check(results), nil }, nil
}

func (s *sumPaper) check(results []*machine.Result) sample {
	out := sample{points: len(results), seed: s.c.seed}
	s.c.attempt(len(results))
	for i, r := range results {
		sc := s.cases[i]
		if r.RAX != sc.want {
			s.c.fail("sum_paper: n=%d: sum %d, want %d", sc.n, r.RAX, sc.want)
		}
		out.work += r.Instructions
		out.counts.addResult(r)
		if sc.n == s.c.sz.calibN {
			out.counts.FetchDone, out.counts.RetireDone = r.FetchDone, r.RetireDone
		}
	}
	return out
}

func (s *sumPaper) close() {}

// ------------------------------------------------------------------ ilp_fig7

type ilpFig7 struct {
	c       *config
	kernels []*pbbs.Kernel
}

func setupILP(c *config) (instance, error) {
	ks := pbbs.Kernels()
	// Compile each kernel once so that lazy per-size lowering is done before
	// the first timed repetition.
	for _, k := range ks {
		if _, err := k.Build(c.sz.ilpN, minic.ModeCall); err != nil {
			return nil, err
		}
	}
	return &ilpFig7{c: c, kernels: ks}, nil
}

func (f *ilpFig7) rep() (func() (sample, error), error) {
	// One worker: the traced emulator allocates ~900 B per instruction, and
	// two kernels in flight double the peak.
	pts, err := pbbs.MeasureAll(f.kernels, []int{f.c.sz.ilpN}, f.c.seed, 1)
	return func() (sample, error) { return f.check(pts, err), nil }, nil
}

// check counts one operation per kernel. MeasureILP has already compared
// each checksum with the kernel's reference; a kernel that failed is missing
// from pts and named in err.
func (f *ilpFig7) check(pts []*pbbs.ILPPoint, err error) sample {
	f.c.attempt(len(f.kernels))
	for i := len(pts); i < len(f.kernels); i++ {
		f.c.fail("ilp_fig7: %d of %d kernels failed: %v", len(f.kernels)-len(pts), len(f.kernels), err)
	}
	out := sample{points: len(pts), seed: f.c.seed}
	for _, p := range pts {
		out.work += int64(p.Instructions)
		out.counts.ILP = append(out.counts.ILP, ilpCount{
			Kernel: p.Kernel.ID, Instructions: p.Instructions, SeqILP: p.SeqILP, ParILP: p.ParILP,
		})
	}
	return out
}

func (f *ilpFig7) close() {}

// ---------------------------------------------------------------- serve_warm

// listen serves h on a loopback port and returns the base URL and a stop
// function that waits until the server has ended.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed after Shutdown
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

type serveWarm struct {
	c      *config
	dir    string
	url    string
	stop   func()
	srv    *server.Server
	client *http.Client
	eng    *sweep.Engine
	refs   map[int]uint64
	// oracle is the in-process engine's record for every grid point, by
	// point: what each served record must equal.
	oracle map[sweep.Point]sweep.Record
	rng    *rand.Rand
	reqs   []served // every repetition's, for the traced run's percentiles
	non2xx atomic.Int64
}

func setupServeWarm(c *config) (instance, error) {
	refs, err := c.references()
	if err != nil {
		return nil, err
	}
	dir, err := c.tempDir("serve")
	if err != nil {
		return nil, err
	}
	cache, err := sweep.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	// Fill the cache with the whole grid; these records are also the oracle.
	fill := &sweep.Engine{Cache: cache, Workers: c.nproc, Pool: machine.NewPool()}
	recs, err := fill.Run(c.grid(), nil)
	if err != nil {
		return nil, fmt.Errorf("filling the cache: %w", err)
	}
	s := &serveWarm{
		c: c, dir: dir, refs: refs, oracle: make(map[sweep.Point]sweep.Record, len(recs)),
		eng: &sweep.Engine{Cache: cache, Workers: c.nproc, Pool: machine.NewPool()},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: c.nproc,
		}},
		rng: rand.New(rand.NewPCG(c.seed, 0x7365727665)),
	}
	for _, r := range recs {
		s.oracle[r.Point] = r
	}
	s.srv = server.New(server.Config{Engine: s.eng, Log: discardLog})
	if s.url, s.stop, err = listen(s.srv.Handler()); err != nil {
		return nil, err
	}
	return s, nil
}

// served is one request as its client saw it.
type served struct {
	topo   string
	submit time.Duration // POST sent → 202 read
	ttfb   time.Duration // POST sent → first result byte
	total  time.Duration // POST sent → last result byte
	body   []byte
	err    error
}

// requestBody is the sweep a client asks for: every grid kernel at the grid
// size on every grid core count, over one topology.
func (s *serveWarm) requestBody(topo string) []byte {
	body, _ := json.Marshal(map[string]any{
		"kernels": s.c.sz.kernels, "sizes": []int{s.c.sz.n}, "cores": s.c.sz.cores,
		"topologies": []string{topo}, "seed": s.c.seed,
	})
	return body
}

// request submits one sweep and reads its results to the end.
func (s *serveWarm) request(topo string) served {
	out := served{topo: topo}
	start := time.Now()
	resp, err := s.client.Post(s.url+"/v1/sweeps", "application/json", bytes.NewReader(s.requestBody(topo)))
	if err != nil {
		out.err = err
		return out
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.submit = time.Since(start)
	var st server.Status
	if err == nil && resp.StatusCode != http.StatusAccepted {
		s.non2xx.Add(1)
		err = fmt.Errorf("POST /v1/sweeps: status %d: %s", resp.StatusCode, raw)
	}
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err != nil {
		out.err = err
		return out
	}
	res, err := s.client.Get(s.url + st.Results)
	if err != nil {
		out.err = err
		return out
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		s.non2xx.Add(1)
		out.err = fmt.Errorf("GET %s: status %d", st.Results, res.StatusCode)
		return out
	}
	first := make([]byte, 1)
	if _, err := io.ReadFull(res.Body, first); err != nil {
		out.err = fmt.Errorf("GET %s: empty stream: %w", st.Results, err)
		return out
	}
	out.ttfb = time.Since(start)
	rest, err := io.ReadAll(res.Body)
	out.total = time.Since(start)
	out.body, out.err = append(first, rest...), err
	return out
}

// phase is one repetition: nproc clients, each sending its next request only
// after the previous one was answered in full (a closed loop), until
// phaseReqs requests have been made. The topology of the i-th request comes
// from the seeded generator.
func (s *serveWarm) phase(clients int) []served {
	out := make([]served, s.c.sz.phaseReqs)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= len(out) {
					mu.Unlock()
					return
				}
				next++
				topo := s.c.sz.topos[s.rng.IntN(len(s.c.sz.topos))]
				mu.Unlock()
				out[i] = s.request(topo)
			}
		}()
	}
	wg.Wait()
	return out
}

func (s *serveWarm) rep() (func() (sample, error), error) {
	reqs := s.phase(s.c.nproc)
	s.reqs = append(s.reqs, reqs...)
	return func() (sample, error) { return s.check(reqs), nil }, nil
}

// check verifies every answered request: a full stream of records, each
// equal to the oracle's record for its point, in grid order.
func (s *serveWarm) check(reqs []served) sample {
	var out sample
	for _, rq := range reqs {
		pts, err := s.c.grid(rq.topo).Points()
		if err != nil {
			s.c.attempt(1)
			s.c.fail("serve_warm: %v", err)
			continue
		}
		if rq.err != nil {
			s.c.attempt(len(pts))
			s.c.fail("serve_warm: request failed: %v", rq.err)
			continue
		}
		recs, err := sweep.ReadJSONL(bytes.NewReader(rq.body))
		if err != nil {
			s.c.attempt(len(pts))
			s.c.fail("serve_warm: bad result stream: %v", err)
			continue
		}
		s.c.checkRecords("serve_warm", recs, len(pts), s.refs)
		want := make([]sweep.Record, len(pts))
		for i, p := range pts {
			want[i] = s.oracle[p]
		}
		s.c.checkAgainstOracle("serve_warm", recs, want)
		out.points += len(recs)
	}
	// The cache was full before the first request: nothing may simulate.
	s.c.attempt(1)
	if st := s.eng.Stats(); st.Simulated != 0 {
		s.c.fail("serve_warm: the serving engine simulated %d points from a warm cache", st.Simulated)
	}
	out.work = int64(out.points)
	return out
}

func (s *serveWarm) close() {
	s.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = s.srv.Drain(ctx) // every request was read to its end: nothing is in flight
	cancel()
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// --------------------------------------------------------------- fabric_cold

type fabricCold struct {
	c       *config
	dir     string
	refs    map[int]uint64
	coord   *fabric.Coordinator
	stop    func()
	cancel  context.CancelFunc
	workers sync.WaitGroup
	clients []*http.Client
	engines []*sweep.Engine // the workers'
}

// gridOracle is the in-process engine's cold run of the grid, computed the
// first time a check asks for it and so outside every timed window: it is
// the benchmark's check, not the system's set-up.
func (c *config) gridOracle() ([]sweep.Record, error) {
	c.oracleOnce.Do(func() {
		eng := &sweep.Engine{Workers: c.nproc, Pool: machine.NewPool()}
		c.oracle, c.oracleErr = eng.Run(c.grid(), nil)
	})
	return c.oracle, c.oracleErr
}

func setupFabricCold(c *config) (instance, error) {
	return newFabricCold(c, nil)
}

// newFabricCold starts a coordinator on a loopback listener and nproc
// workers with empty caches of their own. wrap, when non-nil, wraps each
// worker's HTTP transport (the traced run counts and times RPCs there).
func newFabricCold(c *config, wrap func(worker int, base http.RoundTripper) http.RoundTripper) (*fabricCold, error) {
	refs, err := c.references()
	if err != nil {
		return nil, err
	}
	dir, err := c.tempDir("fabric")
	if err != nil {
		return nil, err
	}
	cache, err := sweep.NewCache(filepath.Join(dir, "coordinator"))
	if err != nil {
		return nil, err
	}
	f := &fabricCold{c: c, dir: dir, refs: refs}
	// Default LeaseTTL (5 s) and Batch (8), as `repro serve` starts it.
	f.coord = &fabric.Coordinator{
		Eng: &sweep.Engine{Cache: cache, Workers: c.nproc, Pool: machine.NewPool()}, Cache: cache, Log: discardLog,
	}
	url, stop, err := listen(f.coord.Handler())
	if err != nil {
		return nil, err
	}
	f.stop = stop
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < c.nproc; i++ {
		wcache, err := sweep.NewCache(filepath.Join(dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			f.close()
			return nil, err
		}
		var rt http.RoundTripper = &http.Transport{}
		if wrap != nil {
			rt = wrap(i, rt)
		}
		client := &http.Client{Transport: rt}
		f.clients = append(f.clients, client)
		eng := &sweep.Engine{Cache: wcache, Workers: 1, Pool: machine.NewPool()}
		f.engines = append(f.engines, eng)
		w := &fabric.Worker{
			Coordinator: url, Name: fmt.Sprintf("bench-%d", i), Client: client, Log: discardLog, Eng: eng,
			// The idle poll the coordinator suggests is LeaseTTL/5 = 1 s, so a
			// worker would sleep through most of a 2 s repetition; this is
			// what `repro worker -poll 20ms` sets.
			Poll: 20 * time.Millisecond,
		}
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			_ = w.Run(ctx) // returns only ctx's error
		}()
	}
	// Run falls back to the local engine while no worker is registered.
	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Stats().Workers < c.nproc {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("workers did not register within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

func (f *fabricCold) rep() (func() (sample, error), error) {
	recs, err := f.coord.Run(f.c.grid(), nil)
	if recs == nil && err != nil {
		return nil, err
	}
	return func() (sample, error) { return f.check(recs) }, nil
}

// check verifies the records the coordinator returned, not its cache
// afterwards: a record is visible before it is durable there (a known
// ordering bug on the roadmap, which this benchmark does not paper over or
// depend on).
func (f *fabricCold) check(recs []sweep.Record) (sample, error) {
	oracle, err := f.c.gridOracle()
	if err != nil {
		return sample{}, fmt.Errorf("in-process oracle: %w", err)
	}
	f.c.checkRecords("fabric_cold", recs, len(oracle), f.refs)
	f.c.checkAgainstOracle("fabric_cold", recs, oracle)
	f.c.attempt(1)
	if st := f.coord.Stats(); st.LocalRuns != 0 {
		f.c.fail("fabric_cold: the coordinator ran %d sweeps locally, want all of them leased", st.LocalRuns)
	}
	return sampleOf(f.c.seed, recs), nil
}

func (f *fabricCold) close() {
	f.cancel()
	f.workers.Wait()
	f.stop()
	for _, cl := range f.clients {
		cl.CloseIdleConnections()
	}
	os.RemoveAll(f.dir)
}
