package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/machine"
	"repro/internal/sweep"
)

// counts are a repetition's simulated-time statistics. A change meant only
// to make the simulator faster must leave every one of them as it is; a
// change to the model, the compiler or a kernel moves them and has to
// regenerate expected.json on purpose (-update-expected).
type counts struct {
	Cycles       int64 `json:"cycles,omitempty"`
	Instructions int64 `json:"instructions,omitempty"`
	Sections     int64 `json:"sections,omitempty"`
	RegRequests  int64 `json:"regRequests,omitempty"`
	MemRequests  int64 `json:"memRequests,omitempty"`
	NocMessages  int64 `json:"nocMessages,omitempty"`
	RequestHops  int64 `json:"requestHops,omitempty"`
	// FetchDone and RetireDone are the paper's two completion times at the
	// calibration point of sum_paper.
	FetchDone  int64 `json:"fetchDone,omitempty"`
	RetireDone int64 `json:"retireDone,omitempty"`
	// ILP is the Fig. 7 table of ilp_fig7, one row per kernel.
	ILP []ilpCount `json:"ilp,omitempty"`
}

type ilpCount struct {
	Kernel       int     `json:"kernel"`
	Instructions int     `json:"instructions"`
	SeqILP       float64 `json:"seqILP"`
	ParILP       float64 `json:"parILP"`
}

func (c *counts) addRecord(r sweep.Record) {
	c.Cycles += r.Cycles
	c.Instructions += r.Instructions
	c.Sections += int64(r.Sections)
	c.RegRequests += r.RegRequests
	c.MemRequests += r.MemRequests
	c.NocMessages += r.Metrics.NocMessages
	c.RequestHops += r.RequestHops
}

func (c *counts) addResult(r *machine.Result) {
	c.Cycles += r.Cycles
	c.Instructions += r.Instructions
	c.Sections += int64(len(r.Sections))
	c.RegRequests += r.RegRequests
	c.MemRequests += r.MemRequests
	c.NocMessages += r.NocMessages()
	c.RequestHops += r.RequestHops
}

func (c counts) zero() bool {
	return c.Cycles == 0 && c.Instructions == 0 && len(c.ILP) == 0
}

func (c counts) equal(o counts) bool {
	a, _ := json.Marshal(c)
	b, _ := json.Marshal(o)
	return string(a) == string(b)
}

// expected is expected.json: the counts of every workload at full size, per
// seed. sum_paper's simulated time does not depend on the seed and is held
// once, so it is checked on every run; the other workloads are checked when
// the run's seed is one of the recorded ones.
type expected struct {
	AnySeed map[string]counts            `json:"anySeed"`
	Seeds   map[string]map[string]counts `json:"seeds"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

func (e *expected) lookup(workload string, seed uint64) (counts, bool) {
	if e == nil {
		return counts{}, false
	}
	if c, ok := e.AnySeed[workload]; ok {
		return c, true
	}
	c, ok := e.Seeds[strconv.FormatUint(seed, 10)][workload]
	return c, ok
}

// check compares the counts of a repetition on the inputs of seed with the
// recorded ones and counts the comparison as one operation. A nil receiver
// (quick sizes) checks nothing.
func (e *expected) check(c *config, workload string, seed uint64, got counts) {
	want, ok := e.lookup(workload, seed)
	if !ok || got.zero() {
		return
	}
	c.attempt(1)
	if !got.equal(want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		c.fail("%s seed %d: simulated counts moved:\n  got  %s\n  want %s", workload, seed, g, w)
	}
}

// updateExpected runs one repetition of every workload at full size for each
// seed and rewrites expected.json beside the benchmark's sources.
func updateExpected(dir string, seeds []uint64, workdir string, nproc int) error {
	e := expected{AnySeed: map[string]counts{}, Seeds: map[string]map[string]counts{}}
	for _, seed := range seeds {
		c := &config{seed: seed, nproc: nproc, workdir: workdir, sz: fullSizing()}
		c.sz.minReps, c.sz.setups = 1, 1
		bySeed := map[string]counts{}
		for _, w := range workloads {
			if w.name == "sum_paper" && len(e.AnySeed) > 0 {
				continue
			}
			res, err := w.run(c)
			if err != nil {
				return err
			}
			got := res.samples[0].counts
			switch {
			case got.zero():
			case w.name == "sum_paper":
				e.AnySeed[w.name] = got
			default:
				bySeed[w.name] = got
			}
			fmt.Fprintf(os.Stderr, "expected: seed %d %s done\n", seed, w.name)
		}
		if c.failed > 0 {
			return fmt.Errorf("seed %d: %d of %d operations failed; not recording wrong counts", seed, c.failed, c.attempted)
		}
		e.Seeds[strconv.FormatUint(seed, 10)] = bySeed
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "expected.json"), append(data, '\n'), 0o644)
}
