package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"modelslicing/internal/tensor"
)

// The /predict wire codec: the JSON of PredictRequest and PredictResponse,
// with the canonical spelling of both made cheap. encoding/json stays the
// definition of the format — a body the scan does not recognise is handed to
// it unchanged, and the encoder's output is json.Marshal's byte for byte.

// predictBuf is one request's pooled storage: the body bytes (then, once
// parsed, the reply bytes), the input vector, and the tensor header submitted.
type predictBuf struct {
	raw bytes.Buffer
	in  []float64
	x   tensor.Tensor
}

var predictBufs = sync.Pool{New: func() any { return new(predictBuf) }}

var jsonContentType = []string{"application/json"}

// ReadPredictBody reads a /predict body of at most limit bytes into buf,
// pre-sized from the declared length. On failure it has answered the request
// (413 for an oversized body, 400 for an unreadable one) and returns false.
func ReadPredictBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, limit int64) bool {
	buf.Reset()
	buf.Grow(int(min(max(r.ContentLength, 0), limit)) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// parsePredict decodes a /predict body into dst[:0]. It accepts exactly what
// json.NewDecoder(body).Decode into a PredictRequest accepts, with the same
// floats and the same error: a body the scan does not recognise (other keys,
// key case, escapes, null, duplicates, an out-of-range number, bytes after
// the object) goes to encoding/json.
func parsePredict(body []byte, dst []float64) ([]float64, error) {
	if in, ok := scanPredict(body, dst); ok {
		return in, nil
	}
	var req PredictRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	return req.Input, nil
}

// scanPredict is one forward scan for {"input":[n,n,…]} with JSON whitespace
// between tokens and nothing else after. Each element is checked against the
// JSON number grammar, then parsed by the call encoding/json makes.
func scanPredict(b []byte, dst []float64) ([]float64, bool) {
	i, ok := 0, true
	for _, tok := range [...]string{"{", `"input"`, ":", "["} {
		if i, ok = expectToken(b, i, tok); !ok {
			return nil, false
		}
	}
	dst = dst[:0]
	i, done := expectToken(b, i, "]") // the empty array
	for !done {
		i = skipSpace(b, i)
		end := numberEnd(b, i)
		if end < 0 {
			return nil, false
		}
		// The conversion does not allocate: ParseFloat does not retain its
		// argument and a number is shorter than the stack buffer.
		v, err := strconv.ParseFloat(string(b[i:end]), 64)
		if err != nil {
			return nil, false
		}
		dst = append(dst, v)
		if i, done = expectToken(b, end, "]"); !done {
			if i, ok = expectToken(b, i, ","); !ok {
				return nil, false
			}
		}
	}
	if i, ok = expectToken(b, i, "}"); !ok {
		return nil, false
	}
	return dst, skipSpace(b, i) == len(b)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// expectToken skips whitespace, then requires tok; it returns the index after.
func expectToken(b []byte, i int, tok string) (int, bool) {
	i = skipSpace(b, i)
	if len(b)-i < len(tok) || string(b[i:i+len(tok)]) != tok {
		return i, false
	}
	return i + len(tok), true
}

// numberEnd returns the index after the JSON number starting at b[i], or -1
// if none starts there: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func numberEnd(b []byte, i int) int {
	at := func(c byte) bool { return i < len(b) && b[i] == c }
	digits := func() bool {
		start := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	if at('-') {
		i++
	}
	if at('0') {
		i++
	} else if !digits() {
		return -1
	}
	if at('.') {
		if i++; !digits() {
			return -1
		}
	}
	if at('e') || at('E') {
		if i++; at('+') || at('-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// errNonFinite is appendPredictResponse's refusal: JSON cannot spell NaN or Inf.
var errNonFinite = errors.New("server: model output is not finite (NaN or Inf)")

// appendPredictResponse appends resp as JSON plus a newline — the bytes
// json.NewEncoder.Encode writes — or fails with errNonFinite.
func appendPredictResponse(dst []byte, resp *PredictResponse) ([]byte, error) {
	var err error
	field := func(key string, v float64) {
		dst = append(dst, key...)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err = errNonFinite
		}
		dst = appendJSONFloat(dst, v)
	}
	dst = append(dst, `{"output":`...)
	if resp.Output == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range resp.Output {
			if i > 0 {
				dst = append(dst, ',')
			}
			field("", v)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"argmax":`...), int64(resp.ArgMax), 10)
	field(`,"rate":`, resp.Rate)
	field(`,"latency_ms":`, resp.LatencyMs)
	dst = strconv.AppendBool(append(dst, `,"slo_miss":`...), resp.SLOMiss)
	if st := resp.Stages; st != nil {
		field(`,"stages":{"queued_ms":`, st.QueuedMs)
		field(`,"dispatch_ms":`, st.DispatchMs)
		field(`,"compute_ms":`, st.ComputeMs)
		field(`,"settle_ms":`, st.SettleMs)
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...), err
}

// appendJSONFloat formats a finite float64 as encoding/json does: shortest
// round-trip digits, exponent form only outside [1e-6, 1e21), e-09 as e-9.
func appendJSONFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
