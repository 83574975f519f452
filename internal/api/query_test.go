package api

import (
	"bufio"
	"encoding/json"
	"math"
	"net/url"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestParsePredictQueryStableError: a query with several faults gets
// the same error on every parse, from a freshly parsed map each time —
// the first key in sorted order — so a response through any replica
// or the gateway is byte-identical.
func TestParsePredictQueryStableError(t *testing.T) {
	const raw = "name=s1&static=maybe&format=xml&refrate=1"
	const want = `format must be text or json, got "xml"`
	for i := 0; i < 200; i++ {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ParsePredictQuery(q); err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %q", i, err, want)
		}
	}
	for raw, want := range map[string]string{
		"name=s1&zeta=1&alpha=2&beta=3": `unknown query parameter "alpha" (want name, model, static, ref_rate or format)`,
		"name=s1&x=1&x=2":               `duplicate query parameter "x"`,
		"static=2&model=a&model=b":      `duplicate query parameter "model"`,
		"ref_rate=fast&static=2":        `ref_rate "fast" is not a number`,
	} {
		for i := 0; i < 50; i++ {
			q, _ := url.ParseQuery(raw)
			if _, _, err := ParsePredictQuery(q); err == nil || err.Error() != want {
				t.Fatalf("%s, parse %d: error %v, want %q", raw, i, err, want)
			}
		}
	}
}

// TestParsePredictQueryValidAllocs: a valid query parses without an
// allocation; GET catalog hits of a caching server take this path.
func TestParsePredictQueryValidAllocs(t *testing.T) {
	q, err := url.ParseQuery("name=fig4&model=infiniband&static=1&ref_rate=1e9&format=text")
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := ParsePredictQuery(q); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a valid query allocates %v objects per parse, want 0", allocs)
	}
}

// encodePredictQuery is the query of a parsed request and format: the
// inverse of ParsePredictQuery on what it accepts.
func encodePredictQuery(req PredictRequest, format string) string {
	q := url.Values{"name": {req.Name}}
	if req.Model != "" {
		q.Set("model", req.Model)
	}
	if req.Static {
		q.Set("static", "true")
	}
	if math.Float64bits(req.RefRate) != 0 {
		q.Set("ref_rate", strconv.FormatFloat(req.RefRate, 'g', -1, 64))
	}
	if format != "" {
		q.Set("format", format)
	}
	return q.Encode()
}

// sameRequest compares two parsed requests, the reference rate by its
// bits (a NaN rate re-parses as the same NaN).
func sameRequest(a, b PredictRequest) bool {
	return a.Name == b.Name && a.Model == b.Model && a.Static == b.Static &&
		math.Float64bits(a.RefRate) == math.Float64bits(b.RefRate)
}

// goldenPredictQueries returns the queries of the GET /v1/predict
// requests in the committed load replay log.
func goldenPredictQueries(f *testing.F) []string {
	file, err := os.Open("../../scripts/testdata/load_replay.golden")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	var out []string
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec struct {
			Method, Path string
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			f.Fatal(err)
		}
		if q, ok := strings.CutPrefix(rec.Path, "/v1/predict?"); ok && rec.Method == "GET" {
			out = append(out, q)
		}
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	if len(out) == 0 {
		f.Fatal("the load replay log holds no GET /v1/predict request")
	}
	return out
}

// FuzzPredictQuery holds ParsePredictQuery to its contract on any raw
// query: it never panics, two parses of the same query (each from a
// freshly parsed map) give the same request, format and error, and an
// accepted query, re-encoded from the request and format it returned,
// parses back to the same request and format. Seeded with the catalog
// GETs of the committed load replay log.
func FuzzPredictQuery(f *testing.F) {
	for _, q := range goldenPredictQueries(f) {
		f.Add(q)
	}
	f.Add("name=s1&static=maybe&format=xml&refrate=1")
	f.Add("name=s2&ref_rate=NaN&static=0&format=json")
	f.Fuzz(func(t *testing.T, raw string) {
		parse := func(raw string) (PredictRequest, string, string) {
			q, _ := url.ParseQuery(raw)
			req, format, err := ParsePredictQuery(q)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			return req, format, msg
		}
		req, format, msg := parse(raw)
		req2, format2, msg2 := parse(raw)
		if !sameRequest(req, req2) || format != format2 || msg != msg2 {
			t.Fatalf("%q parses as %+v %q %q, then as %+v %q %q", raw, req, format, msg, req2, format2, msg2)
		}
		if msg != "" {
			return
		}
		enc := encodePredictQuery(req, format)
		back, backFormat, backMsg := parse(enc)
		if backMsg != "" || !sameRequest(back, req) || backFormat != format {
			t.Fatalf("%q parses as %+v %q; re-encoded as %q it parses as %+v %q %q",
				raw, req, format, enc, back, backFormat, backMsg)
		}
	})
}
