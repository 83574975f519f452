package report

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// jsonPrefixes are the two indentation prefixes the serving tiers use:
// a top-level document and a batch envelope's item.
var jsonPrefixes = []string{"", "    "}

// checkAppendJSON holds AppendJSON to json.MarshalIndent for p: the same
// bytes after an existing head, or the same error with the head left
// untouched.
func checkAppendJSON(t *testing.T, p Prediction) {
	t.Helper()
	head := []byte("head:")
	for _, prefix := range jsonPrefixes {
		want, wantErr := json.MarshalIndent(p, prefix, "  ")
		got, err := p.AppendJSON(append([]byte(nil), head...), prefix)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("prefix %q: error %v, MarshalIndent gives %v", prefix, err, wantErr)
			}
			if _, ok := err.(*json.UnsupportedValueError); !ok {
				t.Fatalf("prefix %q: error type %T, want *json.UnsupportedValueError", prefix, err)
			}
			if !bytes.Equal(got, head) {
				t.Fatalf("prefix %q: failed append returned %q, want the unextended head", prefix, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("prefix %q: unexpected error %v", prefix, err)
		}
		if !bytes.Equal(got, append(head, want...)) {
			t.Fatalf("prefix %q: AppendJSON differs from MarshalIndent\ngot:\n%s\nwant:\n%s", prefix, got[len(head):], want)
		}
	}
}

// awkwardStrings exercise every escaping rule encoding/json applies.
var awkwardStrings = []string{
	"", "a", "s4/c0", `a"b\c`, "x<y", "x>y", "x&y", "tab\tnewline\n\x00\x1f\x7f",
	"café", "line\u2028sep\u2029", "bad\xffutf8\xc3", "\U0001F600",
}

// awkwardFloats cover the format switch points, signed zero, subnormals
// and values encoding/json refuses.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e6, 1e-6, 9.99e-7, 1e-7, -1e-7,
	1e20, 1e21, -1e21, 1.5e300, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
	123456789.123, 1e-9, 1.25e-10,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendJSONMatchesMarshalIndent(t *testing.T) {
	comm := CommPrediction{Label: "c0", Src: 3, Dst: 7, Volume: 2e7, StaticPenalty: 1.5, Time: 0.183}
	link := LinkUtil{Switch: 1, Dir: "up", Comms: 2, Bytes: 4e7, MeanRate: 1.1e8, Capacity: 2.5e8, Utilization: 0.44}
	cases := []Prediction{
		{Model: "GigE", Progressive: true, RefRate: 1.17e8},
		{Model: "GigE", Comms: []CommPrediction{}},
		{Model: "GigE", Comms: []CommPrediction{}, Links: []LinkUtil{}},
		{Model: "GigE", Comms: []CommPrediction{comm}},
		{Model: "Myrinet", Cached: true, RefRate: 2.4e8, Topology: "fattree:4x4:2", Comms: []CommPrediction{comm, comm}, Links: []LinkUtil{link, link}},
		{Model: "KimLee", Links: []LinkUtil{link}},
		{Model: "GigE", Comms: []CommPrediction{{Src: -1, Dst: math.MaxInt32}}},
	}
	for _, s := range awkwardStrings {
		c, l := comm, link
		c.Label, l.Dir = s, s
		cases = append(cases, Prediction{Model: s, Topology: s, Comms: []CommPrediction{c}, Links: []LinkUtil{l}})
	}
	for _, f := range awkwardFloats {
		c, l := comm, link
		c.Volume, c.StaticPenalty, c.Time = f, f, f
		l.Bytes, l.MeanRate, l.Capacity, l.Utilization = f, f, f, f
		cases = append(cases,
			Prediction{Model: "GigE", RefRate: f},
			Prediction{Model: "GigE", Comms: []CommPrediction{comm, c}},
			Prediction{Model: "GigE", Comms: []CommPrediction{}, Links: []LinkUtil{link, l}})
	}
	for _, p := range cases {
		checkAppendJSON(t, p)
	}
}

// FuzzPredictionJSON holds AppendJSON byte-equal to json.MarshalIndent
// over fuzzed strings, numbers and document shapes. shape's low two
// bits pick nil, empty, one or two comms; bit 2 adds links.
func FuzzPredictionJSON(f *testing.F) {
	for i, s := range awkwardStrings {
		x := awkwardFloats[i%len(awkwardFloats)]
		f.Add(s, s, "up", x, 1.5, -x, uint8(i))
	}
	for i, x := range awkwardFloats {
		f.Add("GigE", "c0", "down", x, x, 0.25, uint8(i))
	}
	f.Fuzz(func(t *testing.T, model, label, dir string, x, y, z float64, shape uint8) {
		p := Prediction{Model: model, Progressive: shape&8 != 0, RefRate: x, Cached: shape&16 != 0, Topology: dir}
		c := CommPrediction{Label: label, Src: int(shape), Dst: -int(shape), Volume: y, StaticPenalty: z, Time: x}
		switch shape & 3 {
		case 1:
			p.Comms = []CommPrediction{}
		case 2:
			p.Comms = []CommPrediction{c}
		case 3:
			p.Comms = []CommPrediction{c, {Label: model, Volume: z, Time: y}}
		}
		if shape&4 != 0 {
			p.Links = []LinkUtil{{Switch: int(shape), Dir: dir, Comms: 1, Bytes: y, MeanRate: z, Capacity: x, Utilization: y / x}}
		}
		checkAppendJSON(t, p)
	})
}
