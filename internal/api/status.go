package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// ErrInternal marks failures of the service itself — a recovered
// simulator panic — as opposed to a rejected request. StatusFor maps it
// to 500 where plain errors map to 400.
var ErrInternal = errors.New("internal error")

// ErrTimeout marks a prediction that exceeded the configured request
// deadline: either no worker freed up in time, or the simulation itself
// was too slow (a wedged engine on a degenerate scheme). StatusFor maps
// it to 503 — the service is overloaded or stuck, the request may well
// succeed on retry or with a longer deadline.
var ErrTimeout = errors.New("request timed out")

// StatusFor translates an error from the serving layers into the HTTP
// status the client should see: timeouts are 503, internal failures
// 500, everything else a client mistake (400). The worker tier layers
// its fleet-error mapping (404/409) on top of this.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrTimeout):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInternal):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// ErrorBody is the JSON error envelope every tier answers failures
// with. Status is set only on batch item errors, where the enclosing
// HTTP status (200) cannot carry the per-item classification.
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status,omitempty"`
}

// DefaultRetryAfter is the retry hint advertised on overload responses
// when no better estimate exists: long enough for a worker slot or a
// health probe cycle to free up, short enough that clients keep their
// latency budget.
const DefaultRetryAfter = time.Second

// SetRetryAfter advertises when an overloaded-path response (429, 503)
// is worth retrying, as whole seconds rounded up (the Retry-After
// header has no sub-second form). Zero or negative means "immediately"
// and still writes 1: a header-bearing rejection must never tell
// clients to hammer.
func SetRetryAfter(h http.Header, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	h.Set("Retry-After", strconv.FormatInt(secs, 10))
}

// WriteError answers with the standard error envelope.
func WriteError(w http.ResponseWriter, code int, msg string) {
	data, _ := json.Marshal(ErrorBody{Error: msg})
	writeBody(w, code, "application/json", append(data, '\n'))
}
