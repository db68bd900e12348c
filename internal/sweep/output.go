package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// AppendJSONL appends r's JSONL line to b and returns the extended slice: the
// bytes json.Encoder.Encode writes for r, newline included, without
// reflection. It is the one statement of a record's wire form, shared by
// `repro sweep -o` (JSONLWriter) and the job server's results stream, and
// TestRecordJSONLMatchesEncodingJSON holds it to encoding/json field by
// field. A float JSON cannot hold (NaN, ±Inf) is an error, as it is for
// encoding/json, and appends nothing.
func (r *Record) AppendJSONL(b []byte) ([]byte, error) {
	for _, f := range [...]float64{r.IPC, r.NsPerCycle} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("sweep: %s n=%d %s: unsupported value %v", r.Name, r.N, r.Config(), f)
		}
	}
	b = append(b, `{"kernel":`...)
	b = strconv.AppendInt(b, int64(r.Kernel), 10)
	b = append(b, `,"name":`...)
	b = appendString(b, r.Name)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"cores":`...)
	b = strconv.AppendInt(b, int64(r.Cores), 10)
	b = append(b, `,"topology":`...)
	b = appendString(b, r.Topology)
	b = append(b, `,"shortcut":`...)
	b = strconv.AppendBool(b, r.Shortcut)
	b = append(b, `,"maxSections":`...)
	b = strconv.AppendInt(b, int64(r.MaxSections), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, r.Seed, 10)
	b = append(b, `,"instructions":`...)
	b = strconv.AppendInt(b, r.Instructions, 10)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendInt(b, r.Cycles, 10)
	b = append(b, `,"ipc":`...)
	b = appendFloat(b, r.IPC)
	b = append(b, `,"fetchCycles":`...)
	b = strconv.AppendInt(b, r.FetchCycles, 10)
	b = append(b, `,"retireCycles":`...)
	b = strconv.AppendInt(b, r.RetireCycles, 10)
	b = append(b, `,"sections":`...)
	b = strconv.AppendInt(b, int64(r.Sections), 10)
	b = append(b, `,"regRequests":`...)
	b = strconv.AppendInt(b, r.RegRequests, 10)
	b = append(b, `,"memRequests":`...)
	b = strconv.AppendInt(b, r.MemRequests, 10)
	b = append(b, `,"createMessages":`...)
	b = strconv.AppendInt(b, r.CreateMessages, 10)
	b = append(b, `,"requestHops":`...)
	b = strconv.AppendInt(b, r.RequestHops, 10)
	b = append(b, `,"responseMessages":`...)
	b = strconv.AppendInt(b, r.ResponseMessages, 10)
	b = append(b, `,"dmhAnswers":`...)
	b = strconv.AppendInt(b, r.DMHAnswers, 10)
	b = append(b, `,"nocMessages":`...)
	b = strconv.AppendInt(b, r.NocMessages, 10)
	b = append(b, `,"checksum":`...)
	b = strconv.AppendUint(b, r.Checksum, 10)
	b = append(b, `,"simNs":`...)
	b = strconv.AppendInt(b, r.SimNs, 10)
	b = append(b, `,"nsPerCycle":`...)
	b = appendFloat(b, r.NsPerCycle)
	if r.RequestedN != 0 {
		b = append(b, `,"requestedN":`...)
		b = strconv.AppendInt(b, int64(r.RequestedN), 10)
	}
	if r.Key != "" {
		b = append(b, `,"key":`...)
		b = appendString(b, r.Key)
	}
	if r.Err != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Err)
	}
	return append(b, "}\n"...), nil
}

// appendString appends s as a JSON string the way json.Encoder writes it,
// HTML-escaped: printable ASCII other than the quote, the backslash and
// <, >, & is copied as is, and any other string goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f the way encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21 on, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// JSONLWriter streams records as one JSON object per line, one Write to the
// underlying writer per record, so long sweeps produce output incrementally.
type JSONLWriter struct {
	w   io.Writer
	buf []byte // the last record's line, kept for its capacity
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: w}
}

// Write emits one record.
func (j *JSONLWriter) Write(rec Record) error {
	var err error
	if j.buf, err = rec.AppendJSONL(j.buf[:0]); err != nil {
		return err
	}
	_, err = j.w.Write(j.buf)
	return err
}

// ReadJSONL parses a sweep file: one Record per non-blank line. An error
// names the line it stopped at, a line past the 1 MiB cap included.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: line %d: %w", line+1, err)
	}
	return recs, nil
}

// ReadFile loads a sweep JSONL file from disk.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}
