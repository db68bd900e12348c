// Package jsonhttp is the JSON body handling the repository's two HTTP
// surfaces share: the job server's API (internal/server) and the fabric's
// coordinator protocol (internal/fabric).
package jsonhttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Decode parses a JSON request body into v strictly: the body is one value,
// followed by nothing but white space, an unknown field is an error (it is
// always a misspelled one), and the body is capped at limit bytes. A failure
// comes with its status: 413 for a body over the cap, 400 for anything else.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("data after the JSON value")
		}
	}
	if errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// Write answers with status code and v as its JSON body. The error is the
// body's encode or write failure, after the status has gone out.
func Write(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w).Encode(v)
}

// Error answers with status code and a JSON {"error": ...} body holding the
// formatted message; the error is Write's.
func Error(w http.ResponseWriter, code int, format string, args ...any) error {
	return Write(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
