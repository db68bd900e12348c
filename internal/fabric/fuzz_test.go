package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// handlerStatuses are the replies Handler documents for each POST path.
var handlerStatuses = map[string][]int{
	PathRegister: {http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge},
	PathLease:    {http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge},
	PathReport:   {http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge},
}

var fuzzPaths = []string{PathRegister, PathLease, PathReport}

// FuzzHandlerBodies: any body POSTed to the register, lease or report
// handler of a coordinator with one registered worker (w1) gets a reply with
// a status the handler documents and a JSON body, an error message on every
// refusal, and never a panic.
func FuzzHandlerBodies(f *testing.F) {
	pt := sweep.Point{Kernel: 2, Name: "quickSort", N: 8, Cores: 1, Topology: "crossbar", Seed: 1}
	report, err := json.Marshal(ReportRequest{Worker: "w1", Lease: "l1", Results: []ReportResult{
		{Task: "t1", Record: sweep.Record{Point: pt, Key: strings.Repeat("ab", 32)}},
		{Task: "t2", Record: sweep.Record{Point: pt, Err: "failed"}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	for i, body := range []string{
		`{"name":"host:1"}`,
		`{"worker":"w1"}`,
		`{"worker":"w2"}`,
		string(report),
		`{"worker":"w1","results":[{},{},{},{},{},{},{},{},{}]}`,
		`{"worker":"w1","results":null}`,
		`{"nosuchfield":1}`,
		`{"worker":1}`,
		`{`,
		``,
		`null`,
		`[]`,
	} {
		for p := range fuzzPaths {
			f.Add(uint8(i+p), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		c := &Coordinator{Eng: &sweep.Engine{}, Log: quietLog()}
		if w := c.Register("fuzz").Worker; w != "w1" {
			t.Fatalf("first worker registered as %q", w)
		}
		path := fuzzPaths[int(which)%len(fuzzPaths)]
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(string(body))))
		documented := false
		for _, code := range handlerStatuses[path] {
			documented = documented || rec.Code == code
		}
		if !documented {
			t.Fatalf("POST %s %q = %d, not a status the handler documents", path, body, rec.Code)
		}
		var reply map[string]any
		if err := json.NewDecoder(rec.Body).Decode(&reply); err != nil {
			t.Fatalf("POST %s %q = %d with a body that is not JSON: %v", path, body, rec.Code, err)
		}
		if msg, _ := reply["error"].(string); rec.Code != http.StatusOK && msg == "" {
			t.Fatalf("POST %s %q = %d with no error message", path, body, rec.Code)
		}
	})
}
