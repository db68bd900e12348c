package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/backend"
	"repro/internal/fanout"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

var update = flag.Bool("update", false, "rewrite testdata/machine-golden.jsonl from this tree's machine")

const machineGolden = "machine-golden.jsonl"

// goldenChips are the machine axes of the golden grid: G66's cores {1, 16,
// 64} × {crossbar, mesh} with the shortcut on and no cap, then the other
// values of each axis on 16 cores — the ring, the shortcut off, caps 1 and 2.
var goldenChips = []struct {
	cores    int
	topo     string
	shortcut bool
	cap      int
}{
	{1, TopoCrossbar, true, 0}, {16, TopoCrossbar, true, 0}, {64, TopoCrossbar, true, 0},
	{1, TopoMesh, true, 0}, {16, TopoMesh, true, 0}, {64, TopoMesh, true, 0},
	{16, TopoRing, true, 0}, {16, TopoCrossbar, false, 0},
	{16, TopoCrossbar, true, 1}, {16, TopoCrossbar, true, 2},
}

// goldenPoints is every kernel at n=64, seed 1, on every golden chip; under
// -short each kernel runs on one chip, chip i mod 10 for the i-th kernel, so
// that every kernel and every axis value is still run once.
func goldenPoints(short bool) []Point {
	var pts []Point
	for i, k := range pbbs.Kernels() {
		for j, c := range goldenChips {
			if short && j != i%len(goldenChips) {
				continue
			}
			pts = append(pts, Point{
				Kernel: k.ID, Name: k.Name, N: k.ClampN(64), Cores: c.cores, Topology: c.topo,
				Shortcut: c.shortcut, MaxSections: c.cap, Seed: 1,
			})
		}
	}
	return pts
}

// goldenRow is one golden line: a point, the metrics a sweep records for it
// (wall-clock fields zeroed), and the SHA-256 of its rows — every retired
// instruction's section, position, ordinal, IP, level and six stage cycles,
// in the order a Collector returns them.
type goldenRow struct {
	Point
	Metrics
	Rows string `json:"rows"`
}

// The machine's unexported test hooks, which it has no exported setters for:
// under poisonHook the run overwrites what it frees — retired instructions,
// unnamed cells, dumped sections — with absurd values and never hands it out
// again, so a read of freed state moves a number here; under relabelHook every
// fork relabels the whole section order.
const (
	poisonHook  = "poison"
	relabelHook = "relabelAll"
)

// setHook flips the machine's boolean test hook of that name.
func setHook(m *machine.Machine, name string) {
	f := reflect.ValueOf(m).Elem().FieldByName(name)
	*(*bool)(unsafe.Pointer(f.UnsafeAddr())) = true
}

// measureGolden runs p on a fresh machine, with the named test hooks set and
// a collector.
func measureGolden(p Point, hooks ...string) (goldenRow, error) {
	row := goldenRow{Point: p}
	k, err := pbbs.ByID(p.Kernel)
	if err != nil {
		return row, err
	}
	prog, err := k.Build(p.N, minic.ModeFork)
	if err != nil {
		return row, err
	}
	cfg, err := configOf(p)
	if err != nil {
		return row, err
	}
	m, err := machine.New(prog, cfg)
	if err != nil {
		return row, err
	}
	for _, h := range hooks {
		setHook(m, h)
	}
	in := k.Gen(p.N, p.Seed)
	if err := backend.Inject(prog, m.DMH(), in); err != nil {
		return row, err
	}
	var rows machine.Collector
	rows.Attach(m)
	mr, err := m.Run()
	if err != nil {
		return row, err
	}
	if want, err := k.Ref(p.N, in); err != nil || mr.RAX != want {
		return row, fmt.Errorf("checksum %d, reference %d (%v)", mr.RAX, want, err)
	}
	row.Metrics = metricsOf(mr, 0).StripTiming()
	h := sha256.New()
	var b []byte
	for _, t := range rows.Timings(mr) {
		b = b[:0]
		for _, v := range []int64{t.Section, int64(t.SecPos), int64(t.Idx), t.IP, int64(t.Level), t.FD, t.RR, t.EW, t.AR, t.MA, t.RET} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		h.Write(b)
	}
	row.Rows = hex.EncodeToString(h.Sum(nil))
	return row, nil
}

// TestMachineGolden pins the cycle machine's reproduced numbers on the golden
// grid: for each point the metrics a sweep records and a digest of every
// instruction's stage cycles must equal the committed file, with every run
// poisoned. A change that moves any of them shows as a per-column summary;
// one that means to regenerates the file with go test -update and shows the
// change as a reviewed diff.
func TestMachineGolden(t *testing.T) {
	path := filepath.Join("testdata", machineGolden)
	pts := goldenPoints(testing.Short() && !*update)
	var hooks []string
	if !*update {
		hooks = []string{poisonHook}
	}
	got := measureAll(t, pts, hooks...)
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range got {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if s := goldenDiff(want, got); s != "" {
		t.Errorf("the machine's numbers moved on the golden grid (go test -update rewrites %s):\n%s", path, s)
	}
}

// TestMachineGoldenRelabelled: the section order's labels matter only through
// how they compare. With every fork relabelling the whole order, poisoned,
// the -short golden points still give the golden metrics and row digests.
func TestMachineGoldenRelabelled(t *testing.T) {
	if s := goldenDiff(readGolden(t), measureAll(t, goldenPoints(true), poisonHook, relabelHook)); s != "" {
		t.Errorf("relabelling the section order at every fork moved the machine's numbers:\n%s", s)
	}
}

// measureAll measures pts in parallel with the named test hooks set.
func measureAll(t *testing.T, pts []Point, hooks ...string) []goldenRow {
	t.Helper()
	got := make([]goldenRow, len(pts))
	errs := make([]error, len(pts))
	fanout.Each(len(pts), 0, func(i int) { got[i], errs[i] = measureGolden(pts[i], hooks...) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s %s: %v", pts[i].Name, pts[i].Config(), err)
		}
	}
	return got
}

// readGolden reads the committed golden file, one row per point of the full
// grid.
func readGolden(t *testing.T) map[Point]goldenRow {
	t.Helper()
	path := filepath.Join("testdata", machineGolden)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Point]goldenRow{}
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r goldenRow
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		want[r.Point] = r
	}
	if len(want) != len(goldenPoints(false)) {
		t.Fatalf("%s has %d points, want %d", path, len(want), len(goldenPoints(false)))
	}
	return want
}

// goldenDiff summarises how got differs from want per column: on how many
// points each metric moved and by how much at most, and on how many the rows'
// digest did. Empty when nothing moved.
func goldenDiff(want map[Point]goldenRow, got []goldenRow) string {
	type moved struct {
		points int
		most   float64
	}
	cols := map[string]*moved{}
	note := func(col string, by float64) {
		if cols[col] == nil {
			cols[col] = &moved{}
		}
		cols[col].points++
		cols[col].most = math.Max(cols[col].most, by)
	}
	for _, g := range got {
		w, ok := want[g.Point]
		if !ok {
			note("(point missing from the golden)", 0)
			continue
		}
		gv, wv := reflect.ValueOf(g.Metrics), reflect.ValueOf(w.Metrics)
		for i := 0; i < gv.NumField(); i++ {
			if a, b := gv.Field(i), wv.Field(i); !a.Equal(b) {
				note(gv.Type().Field(i).Name, math.Abs(toFloat(a)-toFloat(b)))
			}
		}
		if g.Rows != w.Rows {
			note("rows", 0)
		}
	}
	var b strings.Builder
	for _, col := range slices.Sorted(maps.Keys(cols)) {
		fmt.Fprintf(&b, "  %-20s moved on %3d of %d points", col, cols[col].points, len(got))
		if mv := cols[col]; mv.most > 0 {
			fmt.Fprintf(&b, ", by at most %g", mv.most)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func toFloat(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return float64(v.Int())
	case reflect.Uint64:
		return float64(v.Uint())
	case reflect.Float64:
		return v.Float()
	}
	panic("golden: unhandled metric kind " + v.Kind().String())
}
