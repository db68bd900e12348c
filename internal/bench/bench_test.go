package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/pbbs"
)

// TestCrossCheckAllKernels is the acceptance cross-check: on every
// registered kernel the idle-skip and dense schedulers must produce
// identical cycles, instruction counts and NoC message totals — Measure
// errors out on any divergence, so a nil error here is the proof.
func TestCrossCheckAllKernels(t *testing.T) {
	want := len(pbbs.Kernels())
	if want < 11 {
		t.Fatalf("registry has %d kernels, want at least the ten of Table 1 plus histogram", want)
	}
	rep, err := Measure(Grid{Kernels: []string{"all"}, N: 12, Cores: []int{7}, Seed: 1, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != want {
		t.Fatalf("measured %d points, want %d", len(rep.Points), want)
	}
	for _, p := range rep.Points {
		if p.Cycles <= 0 || p.Instructions <= 0 || p.DenseNs <= 0 || p.IdleSkipNs <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Kernel, p)
		}
		if p.Speedup <= 0 {
			t.Errorf("%s: non-positive speedup %v", p.Kernel, p.Speedup)
		}
	}
}

func TestReportRoundTripAndTable(t *testing.T) {
	rep, err := Measure(QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Speedup <= 0 || rep.DenseNsPerCycle <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	// All three aggregates describe the points that ran both legs: the quick
	// grid's big-N point (no dense leg, an order of magnitude more ns/cycle)
	// must not leak into the idle-skip figure.
	var denseNs, skipNs, cycles int64
	for _, p := range rep.Points {
		if p.DenseNs > 0 {
			denseNs += p.DenseNs
			skipNs += p.IdleSkipNs
			cycles += p.Cycles
		}
	}
	if cycles == 0 || len(rep.Points) == 0 || rep.Points[len(rep.Points)-1].DenseNs != 0 {
		t.Fatalf("quick grid should mix both-leg points with a dense-less big-N point: %+v", rep.Points)
	}
	// The wide-chip point — the §5 sum on a core per section — closes the
	// quick grid, so a CI smoke run times it and -against judges it.
	if last := rep.Points[len(rep.Points)-1]; last.Kernel != SumKernel || last.N != 2560 ||
		last.Cores != 3072 || last.Sections != 3072 || last.IdleSkipNs <= 0 {
		t.Errorf("quick grid's last point is %+v, want the sum of 2560 elements on 3072 cores", last)
	}
	if want := float64(skipNs) / float64(cycles); rep.IdleSkipNsPerCycle != want {
		t.Errorf("aggregate idle-skip %.1f ns/cycle, want %.1f over the both-leg points", rep.IdleSkipNsPerCycle, want)
	}
	if want := float64(denseNs) / float64(skipNs); rep.Speedup != want {
		t.Errorf("aggregate speedup %.2f, want dense/idle-skip wall ratio %.2f", rep.Speedup, want)
	}
	path := filepath.Join(t.TempDir(), "BENCH_machine.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Error("report did not survive the Write/Load round trip")
	}
	tbl := rep.Table()
	for _, want := range []string{"deterministicHash", "speedup", "aggregate:"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// TestDefaultGridShape: the committed trajectory's grid keeps its regimes —
// the kernel trio on {1, 16, 64} cores and the 192-core sum with both legs,
// then the big-N points and the 3 072-core sum without the dense one — and
// every quick-grid point has a default-grid counterpart for -against.
func TestDefaultGridShape(t *testing.T) {
	type row struct {
		name  string
		n     int
		cores int
		dense bool
	}
	rows := func(g Grid) (out []row) {
		cases, err := g.cases()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			for _, cores := range c.cores {
				out = append(out, row{c.name, c.n, cores, c.dense})
			}
		}
		return out
	}
	def := rows(DefaultGrid())
	if len(def) != 13 {
		t.Fatalf("default grid has %d points, want 9 kernel points, 2 sums and 2 big-N: %+v", len(def), def)
	}
	for _, want := range []row{
		{SumKernel, 160, 192, true},
		{"comparisonSort/quickSort", 1024, 64, false},
		{SumKernel, 2560, 3072, false},
	} {
		if !slices.Contains(def, want) {
			t.Errorf("default grid lacks %+v", want)
		}
	}
	for _, q := range rows(QuickGrid()) {
		if !slices.Contains(def, q) {
			t.Errorf("quick-grid point %+v has no default-grid counterpart", q)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("Load accepted non-JSON")
	}
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"schema":"other","points":[{}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(wrong); err == nil {
		t.Error("Load accepted a wrong schema")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":"`+Schema+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil {
		t.Error("Load accepted a pointless report")
	}
}

func TestBadSelector(t *testing.T) {
	if _, err := Measure(Grid{Kernels: []string{"no-such-kernel"}}); err == nil {
		t.Error("Measure accepted an unknown kernel selector")
	}
}
