package fabric

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/jsonhttp"
)

// maxBody caps a protocol body, request or reply. Report requests and lease
// replies carry whole batches, so the cap is a generous 16 MiB
// (jsonhttp.Decode answers a request past it with 413).
const maxBody = 16 << 20

// Handler serves the fabric protocol (PathRegister, PathLease, PathReport,
// PathStatus). Mount it next to the API handler on the coordinator's
// listener; paths carry the /fabric/v1/ prefix already. A POST is answered
// 200 with its response, or with a JSON {"error": ...} body and 400 (a body
// that does not decode, or a report Report refuses), 404 (a lease or report
// from an unknown worker) or 413 (a body over maxBody). A reply that fails to
// write is dropped: the worker sees the RPC fail and retries it.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if code, err := jsonhttp.Decode(w, r, maxBody, &req); err != nil {
			_ = jsonhttp.Error(w, code, "bad request body: %v", err)
			return
		}
		_ = jsonhttp.Write(w, http.StatusOK, c.Register(req.Name))
	})
	mux.HandleFunc("POST "+PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if code, err := jsonhttp.Decode(w, r, maxBody, &req); err != nil {
			_ = jsonhttp.Error(w, code, "bad request body: %v", err)
			return
		}
		resp, err := c.Lease(req.Worker)
		if err != nil {
			_ = jsonhttp.Error(w, http.StatusNotFound, "%v", err)
			return
		}
		_ = jsonhttp.Write(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST "+PathReport, func(w http.ResponseWriter, r *http.Request) {
		var req ReportRequest
		if code, err := jsonhttp.Decode(w, r, maxBody, &req); err != nil {
			_ = jsonhttp.Error(w, code, "bad request body: %v", err)
			return
		}
		resp, err := c.Report(req)
		switch {
		case errors.Is(err, ErrUnknownWorker):
			_ = jsonhttp.Error(w, http.StatusNotFound, "%v", err)
		case err != nil:
			_ = jsonhttp.Error(w, http.StatusBadRequest, "%v", err)
		default:
			_ = jsonhttp.Write(w, http.StatusOK, resp)
		}
	})
	mux.HandleFunc("GET "+PathStatus, func(w http.ResponseWriter, r *http.Request) {
		_ = jsonhttp.Write(w, http.StatusOK, c.Stats())
	})
	return mux
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
