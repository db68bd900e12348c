package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler serves the fabric protocol (PathRegister, PathLease, PathReport,
// PathStatus). Mount it next to the API handler on the coordinator's
// listener; paths carry the /fabric/v1/ prefix already. A POST is answered
// 200 with its response, or with a JSON {"error": ...} body and 400 (a body
// that does not decode, or a report Report refuses), 404 (a lease or report
// from an unknown worker) or 413 (a body over the cap, see decodeBody).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if code, err := decodeBody(w, r, &req); err != nil {
			writeError(w, code, "bad request body: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, c.Register(req.Name))
	})
	mux.HandleFunc("POST "+PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if code, err := decodeBody(w, r, &req); err != nil {
			writeError(w, code, "bad request body: %v", err)
			return
		}
		resp, err := c.Lease(req.Worker)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST "+PathReport, func(w http.ResponseWriter, r *http.Request) {
		var req ReportRequest
		if code, err := decodeBody(w, r, &req); err != nil {
			writeError(w, code, "bad request body: %v", err)
			return
		}
		resp, err := c.Report(req)
		switch {
		case errors.Is(err, ErrUnknownWorker):
			writeError(w, http.StatusNotFound, "%v", err)
		case err != nil:
			writeError(w, http.StatusBadRequest, "%v", err)
		default:
			writeJSON(w, http.StatusOK, resp)
		}
	})
	mux.HandleFunc("GET "+PathStatus, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	return mux
}

// decodeBody parses a JSON request body strictly, like the API server:
// unknown fields are an error. Report bodies carry whole record batches, so
// the cap is a generous 16 MiB. A failure comes with its status: 413 for a
// body over the cap, 400 for anything else.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// statusError is a non-2xx protocol reply seen by the worker client.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("fabric: coordinator replied %d: %s", e.code, e.msg)
}

// isUnknownWorker reports whether err is the coordinator refusing the
// worker's ID — the signal to register again (typically a coordinator
// restart).
func isUnknownWorker(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusNotFound
}
