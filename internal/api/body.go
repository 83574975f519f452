package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// maxPooledBody caps the buffers Body recycles: a rare huge response is
// left to the garbage collector rather than pinned in the pool, so one
// big batch cannot raise the resident set for good.
const maxPooledBody = 64 << 10

var bodies = sync.Pool{New: func() any { return &Body{b: make([]byte, 0, 4<<10)} }}

// Body is a pooled response body: a handler renders the whole answer
// into it, then Send writes it in one call with an exact
// Content-Length, so no answer goes out chunked.
type Body struct{ b []byte }

// NewBody returns an empty Body from the pool; Send gives it back.
func NewBody() *Body {
	b := bodies.Get().(*Body)
	b.b = b.b[:0]
	return b
}

// Write appends p; it never fails.
func (b *Body) Write(p []byte) (int, error) {
	b.b = append(b.b, p...)
	return len(p), nil
}

// Send writes the body as the answer and returns b to the pool; b must
// not be used afterwards.
func (b *Body) Send(w http.ResponseWriter, code int, contentType string) {
	writeBody(w, code, contentType, b.b)
	b.free()
}

func (b *Body) free() {
	if cap(b.b) <= maxPooledBody {
		bodies.Put(b)
	}
}

func writeBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	// Both values share one allocation; each key gets a full slice, so
	// an append to either reallocates instead of touching the other.
	vals := []string{contentType, strconv.Itoa(len(body))}
	h := w.Header()
	h["Content-Type"] = vals[0:1:1]
	h["Content-Length"] = vals[1:2:2]
	w.WriteHeader(code)
	w.Write(body)
}

// jsonAppender is a document that renders itself exactly as
// json.MarshalIndent(v, prefix, "  ") would (report.Prediction), letting
// AppendIndented skip reflection.
type jsonAppender interface {
	AppendJSON(b []byte, prefix string) ([]byte, error)
}

// AppendIndented appends v as json.MarshalIndent(v, prefix, "  ")
// renders it.
func AppendIndented(b []byte, v any, prefix string) ([]byte, error) {
	if a, ok := v.(jsonAppender); ok {
		return a.AppendJSON(b, prefix)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	buf := bytes.NewBuffer(b)
	json.Indent(buf, data, prefix, "  ") // data is valid JSON
	return buf.Bytes(), nil
}

// WriteJSON renders v exactly as the worker tier does — two-space
// indented JSON plus a trailing newline — so gateway-assembled
// responses (merged batches, error envelopes) are byte-compatible with
// worker-rendered ones.
func WriteJSON(w http.ResponseWriter, code int, v any) error {
	body := NewBody()
	var err error
	if body.b, err = AppendIndented(body.b, v, ""); err != nil {
		body.free()
		WriteError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return err
	}
	body.b = append(body.b, '\n')
	body.Send(w, code, "application/json")
	return nil
}

// The batch envelope, {"results": [...]} as WriteJSON would indent it.
// Items sit at depth 2, so each is rendered with resultPrefix.
const (
	resultsHead  = "{\n  \"results\": ["
	resultsSep   = "\n    "
	resultPrefix = "    "
	resultsTail  = "\n  ]\n}\n"
)

// WriteResults answers 200 with the batch envelope of n items;
// appendItem appends item i rendered as json.MarshalIndent(item, prefix,
// "  "). It is the only batch writer: the worker renders its items with
// it and the gateway splices workers' items (see ResultItems) back
// through it, so a merged batch is byte-identical to one worker's
// answer. An item error is answered as WriteJSON answers one, and
// returned.
func WriteResults(w http.ResponseWriter, n int, appendItem func(b []byte, i int, prefix string) ([]byte, error)) error {
	body := NewBody()
	body.b = append(body.b, resultsHead...)
	for i := 0; i < n; i++ {
		if i > 0 {
			body.b = append(body.b, ',')
		}
		body.b = append(body.b, resultsSep...)
		var err error
		if body.b, err = appendItem(body.b, i, resultPrefix); err != nil {
			body.free()
			WriteError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
			return err
		}
	}
	if n > 0 {
		body.b = append(body.b, resultsTail...)
	} else {
		body.b = append(body.b, "]\n}\n"...)
	}
	body.Send(w, http.StatusOK, "application/json")
	return nil
}

// ResultItems cuts the items out of a batch document WriteResults
// rendered, appending each item's bytes (sub-slices of doc) to dst. It
// reports false for a document that is not valid JSON or not in
// WriteResults' exact layout.
func ResultItems(doc []byte, dst [][]byte) ([][]byte, bool) {
	if !json.Valid(doc) {
		return dst, false
	}
	rest, ok := bytes.CutPrefix(doc, []byte(resultsHead))
	if !ok {
		return dst, false
	}
	if string(rest) == "]\n}\n" {
		return dst, true
	}
	for {
		if rest, ok = bytes.CutPrefix(rest, []byte(resultsSep)); !ok {
			return dst, false
		}
		n := objectLen(rest)
		if n == 0 {
			return dst, false
		}
		dst = append(dst, rest[:n:n])
		rest = rest[n:]
		if string(rest) == resultsTail {
			return dst, true
		}
		if len(rest) == 0 || rest[0] != ',' {
			return dst, false
		}
		rest = rest[1:]
	}
}

// objectLen is the length of the JSON object at the start of b, or 0
// when b does not start with one. b is part of a valid document, so
// brackets balance outside strings.
func objectLen(b []byte) int {
	if len(b) == 0 || b[0] != '{' {
		return 0
	}
	depth, inString := 0, false
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return 0
}

// DecodeBody reads a request body and decodes it with DecodeJSON.
func DecodeBody(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return DecodeJSON(data, v)
}
