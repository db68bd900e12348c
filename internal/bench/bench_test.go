package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestReportRoundTripAndTable(t *testing.T) {
	rep, err := Measure(true)
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
	// quick grid, so a CI smoke run times it.
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Report)
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Error("report did not survive the Write/decode round trip")
	}
	tbl := rep.Table()
	for _, want := range []string{"deterministicHash", "speedup", "aggregate:"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// TestDefaultGridShape: the committed table's grid keeps its regimes and its
// row order — the kernel trio on {1, 16, 64} cores and the 192-core sum with
// both legs, then the big-N points and the 3 072-core sum without the dense
// one — and every quick-grid point is a standard-grid point, so a smoke run's
// rows can be read against BENCH_machine.json's.
func TestDefaultGridShape(t *testing.T) {
	type row struct {
		name  string
		n     int
		cores int
		dense bool
	}
	rows := func(g []gridCase) (out []row) {
		for _, gc := range g {
			bc, err := gc.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, cores := range bc.cores {
				out = append(out, row{bc.name, bc.n, cores, gc.dense})
			}
		}
		return out
	}
	const quickSort, kruskal, hash = "comparisonSort/quickSort", "minSpanningForest/parallelKruskal", "removeDuplicates/deterministicHash"
	def := rows(standardGrid)
	if want := []row{
		{quickSort, 64, 1, true}, {quickSort, 64, 16, true}, {quickSort, 64, 64, true},
		{kruskal, 64, 1, true}, {kruskal, 64, 16, true}, {kruskal, 64, 64, true},
		{hash, 64, 1, true}, {hash, 64, 16, true}, {hash, 64, 64, true},
		{SumKernel, 160, 192, true},
		{quickSort, 512, 64, false}, {quickSort, 1024, 64, false}, {quickSort, 4096, 64, false},
		{SumKernel, 2560, 3072, false},
	}; !slices.Equal(def, want) {
		t.Errorf("standard grid is\n%+v, want\n%+v", def, want)
	}
	for _, q := range rows(quickGrid) {
		if !slices.Contains(def, q) {
			t.Errorf("quick-grid point %+v has no standard-grid counterpart", q)
		}
	}
}

// TestBadSelector: a grid case whose selector names no kernel fails to build
// (and so fails Measure) instead of timing something else.
func TestBadSelector(t *testing.T) {
	if _, err := (gridCase{kernel: "no-such-kernel", n: 64, cores: []int{1}}).build(); err == nil {
		t.Error("build accepted an unknown kernel selector")
	}
}
