package api

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// DecodeJSON decodes a request body holding exactly one JSON value into
// v. Whitespace may follow the value; anything else is an error. Both
// tiers decode every predict, batch and cluster body by this rule (the
// worker through DecodeBody, the gateway on the bytes it has already
// read), so they agree on which bodies are well-formed: a gateway that
// rejected a body its worker accepts would route it by raw bytes, away
// from its home replica.
//
// A *PredictRequest or *BatchRequest is first read by a hand-written
// decoder that accepts a strict subset of JSON (see decoder) and yields
// exactly what encoding/json yields; any other body, and any other
// type, goes to encoding/json, so which bodies are accepted and every
// error message stay encoding/json's.
func DecodeJSON(data []byte, v any) error {
	switch v := v.(type) {
	case *PredictRequest:
		var req PredictRequest
		if d := (decoder{b: data}); d.document(d.predict(&req)) {
			*v = req
			return nil
		}
	case *BatchRequest:
		if _, ok := decodeBatch(data, v, nil); ok {
			return nil
		}
	}
	return json.Unmarshal(data, v)
}

// DecodeBatch decodes a batch body as DecodeJSON does, and returns one
// JSON document per item that decodes to that item: the item's own
// bytes, sub-slices of data, when the hand-written decoder read the
// body, or the item re-encoded when encoding/json did. Joined into
// {"requests":[...]} they form a batch of those items.
func DecodeBatch(data []byte, req *BatchRequest) ([][]byte, error) {
	if items, ok := decodeBatch(data, req, [][]byte{}); ok {
		return items, nil
	}
	if err := json.Unmarshal(data, req); err != nil {
		return nil, err
	}
	items := make([][]byte, len(req.Requests))
	for i := range req.Requests {
		var err error
		if items[i], err = json.Marshal(&req.Requests[i]); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// decodeBatch reads a batch body with the hand-written decoder into
// req, appending each item's bytes to items unless items is nil. On
// false req is untouched.
func decodeBatch(data []byte, req *BatchRequest, items [][]byte) ([][]byte, bool) {
	var batch BatchRequest
	d := decoder{b: data}
	ok := d.document(d.object(batchKeys[:], func(int) bool {
		batch.Requests = make([]PredictRequest, 0, 4)
		return d.array(func() bool {
			batch.Requests = append(batch.Requests, PredictRequest{})
			d.ws()
			start := d.i
			if !d.predict(&batch.Requests[len(batch.Requests)-1]) {
				return false
			}
			if items != nil {
				items = append(items, data[start:d.i:d.i])
			}
			return true
		})
	}))
	if ok {
		*req = batch
	}
	return items, ok
}

// The keys of each request object, exactly as encoding/json names the
// fields; a decoder field index is a position here.
var (
	batchKeys    = [...]string{"requests"}
	predictKeys  = [...]string{"model", "name", "scheme", "comms", "static", "ref_rate", "topology", "faults"}
	commKeys     = [...]string{"label", "src", "dst", "volume"}
	topologyKeys = [...]string{"kind", "switches", "hosts_per_switch", "oversub", "place"}
	faultKeys    = [...]string{"kind", "switch", "host", "factor", "at", "until"}
)

// decoder reads the predict and batch request bodies without
// reflection. It accepts a strict subset of what encoding/json accepts
// into these types and declines (returns false) on the rest, so its
// caller falls back to encoding/json: every object key must be one of
// the type's field names, exactly and at most once (encoding/json also
// matches keys case-insensitively, ignores unknown ones and lets a
// repeated one overwrite or merge); no value may be null; a string must
// be valid UTF-8 with no escaped surrogate; an integer field takes only
// an integer literal that fits. Within that subset it decodes exactly as
// encoding/json does, down to an empty array giving an empty, non-nil
// slice and a float literal parsed by strconv.ParseFloat.
type decoder struct {
	b []byte
	i int
}

// document reports whether the value read ok and only whitespace
// follows it.
func (d *decoder) document(ok bool) bool {
	d.ws()
	return ok && d.i == len(d.b)
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace, reporting whether it was
// there.
func (d *decoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads an object whose keys are among keys, each at most once,
// calling field with a key's index to read its value.
func (d *decoder) object(keys []string, field func(k int) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen uint32
	for {
		k := d.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !d.eat(':') || !field(k) {
			return false
		}
		seen |= 1 << k
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// key reads an object key and returns its index in keys, or -1.
func (d *decoder) key(keys []string) int {
	if !d.eat('"') {
		return -1
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			name := d.b[d.i:j]
			d.i = j + 1
			for k, key := range keys {
				if string(name) == key {
					return k
				}
			}
			return -1
		case c == '\\' || c < 0x20:
			return -1
		}
	}
	return -1
}

// array reads an array, calling elem to read each element.
func (d *decoder) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.eat(']') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

func (d *decoder) predict(req *PredictRequest) bool {
	return d.object(predictKeys[:], func(k int) bool {
		ok := false
		switch k {
		case 0:
			req.Model, ok = d.str()
		case 1:
			req.Name, ok = d.str()
		case 2:
			req.Scheme, ok = d.str()
		case 3:
			req.Comms = make([]CommRequest, 0, 8)
			ok = d.array(func() bool {
				req.Comms = append(req.Comms, CommRequest{})
				return d.comm(&req.Comms[len(req.Comms)-1])
			})
		case 4:
			req.Static, ok = d.bool()
		case 5:
			req.RefRate, ok = d.float()
		case 6:
			req.Topology = new(TopologyRequest)
			ok = d.topology(req.Topology)
		case 7:
			req.Faults = make([]FaultRequest, 0, 1)
			ok = d.array(func() bool {
				req.Faults = append(req.Faults, FaultRequest{})
				return d.fault(&req.Faults[len(req.Faults)-1])
			})
		}
		return ok
	})
}

func (d *decoder) comm(c *CommRequest) bool {
	return d.object(commKeys[:], func(k int) bool {
		ok := false
		switch k {
		case 0:
			c.Label, ok = d.str()
		case 1:
			c.Src, ok = d.int()
		case 2:
			c.Dst, ok = d.int()
		case 3:
			c.Volume, ok = d.float()
		}
		return ok
	})
}

func (d *decoder) topology(t *TopologyRequest) bool {
	return d.object(topologyKeys[:], func(k int) bool {
		ok := false
		switch k {
		case 0:
			t.Kind, ok = d.str()
		case 1:
			t.Switches, ok = d.int()
		case 2:
			t.HostsPerSwitch, ok = d.int()
		case 3:
			t.Oversub, ok = d.float()
		case 4:
			t.Place, ok = d.str()
		}
		return ok
	})
}

func (d *decoder) fault(f *FaultRequest) bool {
	return d.object(faultKeys[:], func(k int) bool {
		ok := false
		switch k {
		case 0:
			f.Kind, ok = d.str()
		case 1, 2:
			var v int
			if v, ok = d.int(); ok && k == 1 {
				f.Switch = &v
			} else if ok {
				f.Host = &v
			}
		case 3:
			f.Factor, ok = d.float()
		case 4:
			f.At, ok = d.float()
		case 5:
			f.Until, ok = d.float()
		}
		return ok
	})
}

func (d *decoder) bool() (bool, bool) {
	d.ws()
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}

// str reads a string value.
func (d *decoder) str() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	ascii := true
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			raw := d.b[d.i:j]
			if !ascii && !utf8.Valid(raw) {
				return "", false
			}
			d.i = j + 1
			return string(raw), true
		case c == '\\':
			return d.escaped(j)
		case c < 0x20:
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

// escaped finishes a string whose first escape is at j.
func (d *decoder) escaped(j int) (string, bool) {
	end := j // the closing quote, bounding the unescaped length
	for end < len(d.b) && d.b[end] != '"' {
		if d.b[end] == '\\' {
			end++
		}
		end++
	}
	out := append(make([]byte, 0, min(end, len(d.b))-d.i), d.b[d.i:j]...)
	for j < len(d.b) {
		c := d.b[j]
		switch {
		case c == '"':
			if !utf8.Valid(out) {
				return "", false
			}
			d.i = j + 1
			return string(out), true
		case c < 0x20:
			return "", false
		case c != '\\':
			out = append(out, c)
			j++
			continue
		}
		if j+1 >= len(d.b) {
			return "", false
		}
		switch e := d.b[j+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if j+6 > len(d.b) {
				return "", false
			}
			r, err := strconv.ParseUint(string(d.b[j+2:j+6]), 16, 32)
			if err != nil || r >= 0xD800 && r < 0xE000 {
				return "", false // a surrogate: encoding/json pairs or replaces them
			}
			out = utf8.AppendRune(out, rune(r))
			j += 4
		default:
			return "", false
		}
		j += 2
	}
	return "", false
}

// number reads a JSON number literal and reports whether it has neither
// fraction nor exponent.
func (d *decoder) number() (lit []byte, integer, ok bool) {
	d.ws()
	b, j := d.b, d.i
	digits := func() bool {
		start := j
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		return j > start
	}
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case !digits():
		return nil, false, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		j++
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	lit = b[d.i:j]
	d.i = j
	return lit, integer, true
}

// maxExactDigits bounds the integer literals read without
// strconv.ParseFloat: fifteen digits stay below 2^53, where every
// integer is a float64.
const maxExactDigits = 15

// int reads an integer literal into an int field; encoding/json rejects
// a fraction or an exponent there.
func (d *decoder) int() (int, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer || len(lit) > 18 { // 18 digits cannot overflow
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	v := 0
	for _, c := range lit {
		v = 10*v + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// float reads a number into a float64 field as encoding/json does.
func (d *decoder) float() (float64, bool) {
	lit, integer, ok := d.number()
	if !ok {
		return 0, false
	}
	if integer && lit[0] != '-' && len(lit) <= maxExactDigits {
		v := 0
		for _, c := range lit {
			v = 10*v + int(c-'0')
		}
		return float64(v), true
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}
