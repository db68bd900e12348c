package machine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sameRun fails t unless a and b are the same run (Traced.Diff).
func sameRun(t *testing.T, label string, a, b Traced) {
	t.Helper()
	if d := a.Diff(b); d != "" {
		t.Errorf("%s: %s", label, d)
	}
}

// perturb changes v, a settable field or element, to a value that differs:
// a number by one, a list in its first entry (in a new list, so that what it
// was copied from keeps the old one) or by one entry when empty, a struct in
// its first field, a pointer to a perturbed copy of what it points to.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch {
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.Kind() == reflect.String:
		v.SetString(v.String() + "'")
	case v.Kind() == reflect.Array:
		perturb(t, v.Index(0))
	case v.Kind() == reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return
		}
		s := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(s, v)
		perturb(t, s.Index(0))
		v.Set(s)
	case v.Kind() == reflect.Struct:
		perturb(t, v.Field(0))
	case v.Kind() == reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		p.Elem().Set(v.Elem())
		perturb(t, p.Elem())
		v.Set(p)
	default:
		t.Fatalf("no way to perturb a %s", v.Type())
	}
}

// TestDiffNamesEveryField: the one comparison of two runs sees a change in
// any field of Result and of a row, and names it. The fields are enumerated
// by reflection here as in Diff, so a field added later is perturbed and
// compared without an edit: each is changed on its own in a copy of a real
// run (FetchedPerCore and Cores are two of them).
func TestDiffNamesEveryField(t *testing.T) {
	m, err := New(mustSumFork(t, 40), DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	run := mustRunRows(t, m)
	if d := run.Diff(run); d != "" {
		t.Fatalf("a run differs from itself: %s", d)
	}
	rt := reflect.TypeFor[Result]()
	for i := range rt.NumField() {
		name := rt.Field(i).Name
		r := *run.Result
		perturb(t, reflect.ValueOf(&r).Elem().Field(i))
		d, want := run.Diff(Traced{&r, run.Timings}), "Result."+name
		if !strings.HasPrefix(d, want+":") && !strings.HasPrefix(d, want+"[") {
			t.Errorf("%s perturbed: Diff says %q", want, d)
		}
	}
	k := len(run.Timings) / 2
	it := reflect.TypeFor[InstTiming]()
	for i := range it.NumField() {
		name := it.Field(i).Name
		rows := slices.Clone(run.Timings)
		perturb(t, reflect.ValueOf(&rows[k]).Elem().Field(i))
		d, want := run.Diff(Traced{run.Result, rows}), fmt.Sprintf("Timings[%d].%s", k, name)
		if !strings.HasPrefix(d, want+":") && !strings.HasPrefix(d, want+".") {
			t.Errorf("%s perturbed: Diff says %q", want, d)
		}
	}
	if d := run.Diff(Traced{run.Result, run.Timings[1:]}); d == "" {
		t.Error("a run missing a row is the same run")
	}
}
