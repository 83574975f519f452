package report

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends p rendered exactly as json.MarshalIndent(p, prefix,
// "  ") renders it, in one pass and without reflection: the serving
// tiers' hot path. A NaN or infinite number fails with the
// *json.UnsupportedValueError MarshalIndent returns, and b is returned
// unextended.
func (p Prediction) AppendJSON(b []byte, prefix string) ([]byte, error) {
	w := jsonWriter{b: b, prefix: prefix}
	w.b = append(w.b, '{')
	w.key(1, "model", true)
	w.str(p.Model)
	w.key(1, "progressive", false)
	w.boolean(p.Progressive)
	w.key(1, "ref_rate_bytes_per_s", false)
	w.number(p.RefRate)
	w.key(1, "cached", false)
	w.boolean(p.Cached)
	if p.Topology != "" {
		w.key(1, "topology", false)
		w.str(p.Topology)
	}
	w.key(1, "comms", false)
	switch {
	case p.Comms == nil:
		w.b = append(w.b, "null"...)
	case len(p.Comms) == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.b = append(w.b, '[')
		for i, c := range p.Comms {
			w.element(i)
			w.key(3, "label", true)
			w.str(c.Label)
			w.key(3, "src", false)
			w.integer(c.Src)
			w.key(3, "dst", false)
			w.integer(c.Dst)
			w.key(3, "volume_bytes", false)
			w.number(c.Volume)
			w.key(3, "static_penalty", false)
			w.number(c.StaticPenalty)
			w.key(3, "time_s", false)
			w.number(c.Time)
			w.close(2, '}')
		}
		w.close(1, ']')
	}
	if len(p.Links) > 0 {
		w.key(1, "links", false)
		w.b = append(w.b, '[')
		for i, l := range p.Links {
			w.element(i)
			w.key(3, "switch", true)
			w.integer(l.Switch)
			w.key(3, "dir", false)
			w.str(l.Dir)
			w.key(3, "comms", false)
			w.integer(l.Comms)
			w.key(3, "bytes", false)
			w.number(l.Bytes)
			w.key(3, "mean_rate_bytes_per_s", false)
			w.number(l.MeanRate)
			w.key(3, "capacity_bytes_per_s", false)
			w.number(l.Capacity)
			w.key(3, "utilization", false)
			w.number(l.Utilization)
			w.close(2, '}')
		}
		w.close(1, ']')
	}
	w.close(0, '}')
	if w.err != nil {
		return b, w.err
	}
	return w.b, nil
}

// jsonWriter appends indented JSON the way json.Indent lays it out:
// every member and element on its own line, prefix then two spaces per
// nesting level.
type jsonWriter struct {
	b      []byte
	prefix string
	err    error // the first unsupported value
}

func (w *jsonWriter) newline(depth int) {
	w.b = append(w.b, '\n')
	w.b = append(w.b, w.prefix...)
	for ; depth > 0; depth-- {
		w.b = append(w.b, "  "...)
	}
}

// key starts an object member at depth.
func (w *jsonWriter) key(depth int, name string, first bool) {
	if !first {
		w.b = append(w.b, ',')
	}
	w.newline(depth)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

// element opens the i-th object of an array that is itself a member at
// depth 1.
func (w *jsonWriter) element(i int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	w.newline(2)
	w.b = append(w.b, '{')
}

// close ends an object or array whose members sit at depth+1.
func (w *jsonWriter) close(depth int, c byte) {
	w.newline(depth)
	w.b = append(w.b, c)
}

func (w *jsonWriter) boolean(v bool) { w.b = strconv.AppendBool(w.b, v) }

func (w *jsonWriter) integer(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// number follows encoding/json: shortest round-trip digits, exponent
// form only below 1e-6 and from 1e21, and a one-digit negative exponent
// written without its leading zero.
func (w *jsonWriter) number(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		n := len(w.b)
		if n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// str quotes printable ASCII that needs no escaping directly; anything
// else (control bytes, quotes, backslashes, the HTML-sensitive <>&,
// non-ASCII) goes through encoding/json, whose escaping it must match.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}
