package api

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
)

// predictQueryKeys are the keys of the GET /v1/predict grammar, in the
// order ParsePredictQuery checks them.
var predictQueryKeys = [...]string{"format", "model", "name", "ref_rate", "static"}

// ParsePredictQuery parses the strict GET /v1/predict query grammar
// into a request. The grammar is strict on purpose: an unknown key (a
// typo like ?refrate=1e9), a repeated key, or a malformed value is an
// error, never silently ignored — a typo that drops a parameter would
// yield a confidently wrong prediction. format is "" (JSON), "json" or
// "text".
//
// Keys are checked in a fixed order, the known ones sorted and then
// the smallest unknown one, so a query with several faults always
// yields the same error.
func ParsePredictQuery(q url.Values) (req PredictRequest, format string, err error) {
	known := 0
	for _, key := range predictQueryKeys {
		vals, ok := q[key]
		if !ok {
			continue
		}
		known++
		if len(vals) != 1 {
			return req, format, fmt.Errorf("duplicate query parameter %q", key)
		}
		v := vals[0]
		switch key {
		case "name":
			req.Name = v
		case "model":
			req.Model = v
		case "static":
			switch v {
			case "true", "1":
				req.Static = true
			case "false", "0":
			default:
				return req, format, fmt.Errorf("static must be true, false, 1 or 0, got %q", v)
			}
		case "ref_rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, format, fmt.Errorf("ref_rate %q is not a number", v)
			}
			req.RefRate = f
		case "format":
			if v != "text" && v != "json" {
				return req, format, fmt.Errorf("format must be text or json, got %q", v)
			}
			format = v
		}
	}
	if known < len(q) {
		var unknown []string
		for key := range q {
			if !slices.Contains(predictQueryKeys[:], key) {
				unknown = append(unknown, key)
			}
		}
		key := slices.Min(unknown)
		if len(q[key]) != 1 {
			return req, format, fmt.Errorf("duplicate query parameter %q", key)
		}
		return req, format, fmt.Errorf("unknown query parameter %q (want name, model, static, ref_rate or format)", key)
	}
	if req.Name == "" {
		return req, format, fmt.Errorf("GET /v1/predict needs ?name=<catalog scheme>; POST a body for scheme text")
	}
	return req, format, nil
}
