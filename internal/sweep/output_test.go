package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The edge values AppendJSONL is held to encoding/json on: strings that need
// escaping (HTML characters, control bytes, invalid UTF-8, the JavaScript
// line separators) and floats at both ends of encoding/json's 'f' range.
var (
	edgeStrings = []string{"", "quickSort/c64", `<>&"\`, "<b>&amp;", `say "hi" \ bye`, "\x00\x01\x1f\t\n\r",
		"\x7f", "\xff\xfe\xc0 bad", "\u2028\u2029", "é ✓"}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e20, 1e21, 5e-324, math.MaxFloat64,
		-1.5, -1e-7, -1e21, 1e20, 0.7986379817365733}
	badFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
)

// encodingJSON is the reference: what json.Encoder writes for rec.
func encodingJSON(rec *Record) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(rec)
	return buf.Bytes(), err
}

// checkJSONL holds rec's AppendJSONL line to encoding/json's bytes, appended
// after a prefix it must leave alone, and reports whether the line was
// written (false when both sides refuse rec).
func checkJSONL(t *testing.T, row string, rec Record) bool {
	t.Helper()
	want, wantErr := encodingJSON(&rec)
	got, err := rec.AppendJSONL([]byte("prefix"))
	if (err != nil) != (wantErr != nil) {
		t.Errorf("%s: AppendJSONL error %v, encoding/json error %v", row, err, wantErr)
		return false
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Errorf("%s: AppendJSONL overwrote the buffer it appends to: %q", row, got)
		return false
	}
	if got = got[len("prefix"):]; err != nil {
		if len(got) != 0 {
			t.Errorf("%s: refused record appended %q", row, got)
		}
		return false
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: AppendJSONL wrote\n%s\nencoding/json wrote\n%s", row, got, want)
		return false
	}
	return true
}

// checkRoundTrip reads line back through ReadJSONL and wants rec, each string
// with its invalid UTF-8 bytes read as U+FFFD, as JSON holds them.
func checkRoundTrip(t *testing.T, row string, line []byte, rec Record) {
	t.Helper()
	got, err := ReadJSONL(bytes.NewReader(line))
	if err != nil || len(got) != 1 {
		t.Errorf("%s: ReadJSONL = %d records, %v", row, len(got), err)
		return
	}
	valid := func(s string) string { return string([]rune(s)) }
	rec.Name, rec.Topology, rec.Key, rec.Err = valid(rec.Name), valid(rec.Topology), valid(rec.Key), valid(rec.Err)
	if got[0] != rec {
		t.Errorf("%s: read back %+v, want %+v", row, got[0], rec)
	}
}

// recordFields calls visit with every leaf field of Record, found by
// reflection through the embedded Point and Metrics, and its path.
func recordFields(v reflect.Value, path string, visit func(reflect.Value, string)) {
	for i := range v.NumField() {
		f, sf := v.Field(i), v.Type().Field(i)
		if sf.Anonymous {
			recordFields(f, path+sf.Name+".", visit)
			continue
		}
		visit(f, path+sf.Name)
	}
}

// TestRecordJSONLMatchesEncodingJSON is the drift guard of the record's one
// wire form: AppendJSONL writes the bytes json.Encoder writes, for a record
// with any one field set (so a field added to Record without the appender
// fails here), for every edge string in every string field, every edge float
// in both floats, the int and uint extremes in every integer field, and every
// record of the machine golden; NaN and ±Inf are refused by both. Every
// written line reads back through ReadJSONL to the record it came from.
func TestRecordJSONLMatchesEncodingJSON(t *testing.T) {
	check := func(row string, rec Record) {
		t.Helper()
		if checkJSONL(t, row, rec) {
			line, _ := rec.AppendJSONL(nil)
			checkRoundTrip(t, row, line, rec)
		}
	}
	// set writes value into the leaf at path of a zero record.
	set := func(path string, value func(reflect.Value)) Record {
		var rec Record
		recordFields(reflect.ValueOf(&rec).Elem(), "", func(f reflect.Value, p string) {
			if p == path {
				value(f)
			}
		})
		return rec
	}
	var paths []string
	recordFields(reflect.ValueOf(&Record{}).Elem(), "", func(_ reflect.Value, p string) { paths = append(paths, p) })
	check("zero record", Record{})
	for i, path := range paths {
		var kind reflect.Kind
		rec := set(path, func(f reflect.Value) {
			switch kind = f.Kind(); kind {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(1000 + i))
			case reflect.Uint64:
				f.SetUint(uint64(1000 + i))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Float64:
				f.SetFloat(0.5 + float64(i))
			case reflect.String:
				f.SetString(fmt.Sprintf("field-%d", i))
			}
		})
		if rec == (Record{}) {
			t.Errorf("%s: kind %v, which this test cannot set: give it a distinctive value", path, kind)
			continue
		}
		check(path+" alone", rec)
		switch kind {
		case reflect.Int, reflect.Int64:
			check(path+" = MaxInt64", set(path, func(f reflect.Value) { f.SetInt(math.MaxInt64) }))
			check(path+" = MinInt64", set(path, func(f reflect.Value) { f.SetInt(math.MinInt64) }))
		case reflect.Uint64:
			check(path+" = MaxUint64", set(path, func(f reflect.Value) { f.SetUint(math.MaxUint64) }))
		case reflect.String:
			for _, s := range edgeStrings {
				check(fmt.Sprintf("%s = %q", path, s), set(path, func(f reflect.Value) { f.SetString(s) }))
			}
		case reflect.Float64:
			for _, x := range slices.Concat(edgeFloats, badFloats) {
				check(fmt.Sprintf("%s = %v", path, x), set(path, func(f reflect.Value) { f.SetFloat(x) }))
			}
		}
	}
	golden, err := ReadFile(filepath.Join("testdata", machineGolden))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range golden {
		check(fmt.Sprintf("golden %s n=%d %s", rec.Name, rec.N, rec.Config()), rec)
	}
}

// FuzzRecordJSONL: any strings, floats and integers in a record's fields,
// and AppendJSONL writes the bytes encoding/json writes, or both refuse it.
func FuzzRecordJSONL(f *testing.F) {
	floats := slices.Concat(edgeFloats, badFloats)
	ints := []int64{0, 1, math.MaxInt64, math.MinInt64}
	for i := range max(len(edgeStrings), len(floats)) {
		s, x, n := edgeStrings[i%len(edgeStrings)], floats[i%len(floats)], ints[i%len(ints)]
		f.Add(s, s, s, s, x, floats[(i+3)%len(floats)], int(n), n, uint64(n), int(n))
	}
	f.Fuzz(func(t *testing.T, name, topo, key, errText string, ipc, nsPerCycle float64, kernel int, cycles int64, seed uint64, requestedN int) {
		checkJSONL(t, "fuzzed record", Record{
			Point:      Point{Kernel: kernel, Name: name, Topology: topo, Seed: seed},
			Metrics:    Metrics{Cycles: cycles, IPC: ipc, Checksum: seed, NsPerCycle: nsPerCycle},
			RequestedN: requestedN, Key: key, Err: errText,
		})
	})
}

// TestAppendJSONLAllocatesNothing is the appender's memory contract: a
// record of printable ASCII appended into a warm buffer, or written through a
// JSONLWriter whose buffer is warm, allocates nothing (json.Encoder boxed
// every record).
func TestAppendJSONLAllocatesNothing(t *testing.T) {
	rec := Record{
		Point:   Point{Kernel: 2, Name: "comparisonSort/quickSort", N: 512, Cores: 64, Topology: TopoMesh, Shortcut: true, Seed: 1},
		Metrics: Metrics{Instructions: 268554, Cycles: 31297, IPC: 8.580828833434514, NsPerCycle: 1234.5, Checksum: math.MaxUint64},
		Key:     strings.Repeat("0123456789abcdef", 4),
	}
	buf := make([]byte, 0, 1024)
	var err error
	if n := testing.AllocsPerRun(100, func() { buf, err = rec.AppendJSONL(buf[:0]) }); n != 0 || err != nil {
		t.Errorf("AppendJSONL into a warm buffer: %v allocations per record, error %v; want 0", n, err)
	}
	jw := NewJSONLWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() { err = jw.Write(rec) }); n != 0 || err != nil {
		t.Errorf("JSONLWriter.Write: %v allocations per record, error %v; want 0", n, err)
	}
}

// TestReadJSONLNamesTheLongLine: a line past the reader's 1 MiB cap fails
// with an error that names its line, as a line that does not parse does.
func TestReadJSONLNamesTheLongLine(t *testing.T) {
	var in bytes.Buffer
	if err := NewJSONLWriter(&in).Write(Record{Point: Point{Kernel: 1, Name: "a"}}); err != nil {
		t.Fatal(err)
	}
	in.WriteString(strings.Repeat("x", 1<<20+1) + "\n")
	_, err := ReadJSONL(&in)
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "line 2:") {
		t.Errorf("ReadJSONL of an over-long second line = %v, want bufio.ErrTooLong naming line 2", err)
	}
	_, err = ReadJSONL(strings.NewReader("\n{\"kernel\":1}\n{\"kernel\":\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3:") {
		t.Errorf("ReadJSONL of a broken third line = %v, want an error naming line 3", err)
	}
}
