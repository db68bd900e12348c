package machine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// Traced is a run's result with the per-instruction rows a Collector gathered
// beside it: everything two runs have to agree on to be the same run.
type Traced struct {
	*Result
	Timings []InstTiming
}

// RunRows runs m — freshly built, bound or Reset — with a Collector attached,
// and checks the position each row carried when it retired.
func RunRows(m *Machine) (Traced, error) {
	var c Collector
	c.Attach(m)
	r, err := m.Run()
	if err != nil {
		return Traced{}, err
	}
	if err := checkRowPositions(c.rows, r.Sections); err != nil {
		return Traced{}, err
	}
	return Traced{r, c.Timings(r)}, nil
}

// checkRowPositions checks rows, in the order they retired and as a sink got
// them, against the run's sections. A row's SecPos is its section's position
// at the cycle it retired: the number of sections before it in the final
// order that existed then, dumped or not. Those created in an earlier cycle
// count for certain, those created in the same cycle may or may not (cores
// fork and retire in turn within a cycle).
func checkRowPositions(rows []InstTiming, secs []SectionInfo) error {
	byID := make([][]int, len(secs))
	for i := range rows {
		byID[rows[i].Section] = append(byID[rows[i].Section], i)
	}
	var created []int64 // creation cycles of the sections before, ascending
	for _, s := range secs {
		for _, i := range byID[s.ID] {
			t := &rows[i]
			lo, _ := slices.BinarySearch(created, t.RET)
			hi, _ := slices.BinarySearch(created, t.RET+1)
			if t.SecPos < lo || t.SecPos > hi {
				return fmt.Errorf("row %d of section %d retired at cycle %d in position %d, want %d..%d",
					t.Idx, t.Section, t.RET, t.SecPos, lo, hi)
			}
		}
		k, _ := slices.BinarySearch(created, s.CreatedAt)
		created = slices.Insert(created, k, s.CreatedAt)
	}
	return nil
}

// Diff returns "" when a and b are the same run, else names the first
// difference by its path — a field of Result ("Result.Cycles"), the first
// entry of a list that differs ("Result.Sections[3]"), a field of a row
// ("Timings[17].RET") — with the two values. The fields are walked by
// reflection, so one added to Result or InstTiming later is compared without
// an edit here. A row's instruction is compared by content, not by pointer;
// a nil list and an empty one are the same.
func (a Traced) Diff(b Traced) string {
	return diff("", reflect.ValueOf(a), reflect.ValueOf(b))
}

// diff is Diff for two values of one type found at path.
func diff(path string, a, b reflect.Value) string {
	if reflect.DeepEqual(a.Interface(), b.Interface()) {
		return ""
	}
	switch a.Kind() {
	case reflect.Pointer:
		if !a.IsNil() && !b.IsNil() {
			return diff(path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		for i := range a.NumField() {
			name := strings.TrimPrefix(path+"."+a.Type().Field(i).Name, ".")
			if d := diff(name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := diff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	}
	return fmt.Sprintf("%s: %+v vs %+v", path, a, b)
}
