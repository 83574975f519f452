package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bwshare/internal/api"
	"bwshare/internal/server"
)

// fleet is a 2-replica gateway over real workers plus a third worker
// reached directly, the reference every gateway answer is held to.
type fleet struct {
	g          *Gateway
	gw, direct string // base URLs
}

// newFleet starts the fleet; wrap, when non-nil, wraps each replica's
// handler (not the direct worker's).
func newFleet(t *testing.T, wrap func(http.Handler) http.Handler) fleet {
	t.Helper()
	workerCfg := server.Config{Workers: 2, CacheSize: 256}
	var ups []Upstream
	for _, name := range []string{"a", "b"} {
		h := server.New(workerCfg).Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		ups = append(ups, Upstream{Name: name, URL: ts.URL})
	}
	direct := httptest.NewServer(server.New(workerCfg).Handler())
	t.Cleanup(direct.Close)
	g, err := New(Config{Upstreams: ups, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	return fleet{g: g, gw: gw.URL, direct: direct.URL}
}

// TestMalformedSubBatch502: a replica that answers a sub-batch 200 with
// anything but a well-formed batch document of the right length makes
// the gateway answer 502 and count bad_gateway, never splice.
func TestMalformedSubBatch502(t *testing.T) {
	corruptions := map[string]func(doc []byte) []byte{
		"invalid json": func([]byte) []byte { return []byte(`{"results": [}`) },
		"truncated":    func(doc []byte) []byte { return doc[:len(doc)/2] },
		// The layout holds; the last item has lost a colon.
		"invalid item": func(doc []byte) []byte {
			i := bytes.LastIndex(doc, []byte(`": `))
			return append(doc[:i+1:i+1], doc[i+2:]...)
		},
		"compact": func(doc []byte) []byte {
			var b bytes.Buffer
			json.Compact(&b, doc)
			return b.Bytes()
		},
		"no results": func([]byte) []byte { return []byte("{\n  \"results\": []\n}\n") },
		"extra result": func(doc []byte) []byte {
			items, ok := api.ResultItems(doc, nil)
			if !ok {
				return doc
			}
			items = append(items, items[0])
			rec := httptest.NewRecorder()
			api.WriteResults(rec, len(items), func(b []byte, i int, _ string) ([]byte, error) { return append(b, items[i]...), nil })
			return rec.Body.Bytes()
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			f := newFleet(t, func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path != "/v1/predict/batch" {
						h.ServeHTTP(w, r)
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					w.Header().Set("Content-Type", "application/json")
					w.Write(corrupt(rec.Body.Bytes()))
				})
			})
			got := postRaw(t, f.gw+"/v1/predict/batch", spanningBatch(t, f.g))
			if got.status != http.StatusBadGateway || !strings.Contains(string(got.body), "malformed batch document") {
				t.Fatalf("status %d: %s", got.status, got.body)
			}
			if n := f.g.Snapshot().BadGateway; n != 1 {
				t.Errorf("bad_gateway = %d, want 1", n)
			}
		})
	}
}

// TestTrailingDataSameOnBothTiers: a body with non-whitespace after its
// JSON value is a 400 on both tiers, so the gateway never routes a body
// the worker accepts by its raw bytes (off its key's home replica);
// trailing whitespace is accepted and routed home.
func TestTrailingDataSameOnBothTiers(t *testing.T) {
	f := newFleet(t, nil)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("c%d", i)
		create := `{"name":"` + name + `","hosts":8}`
		if got := postRaw(t, f.gw+"/v1/clusters", create+" x"); got.status != http.StatusBadRequest {
			t.Fatalf("%s: create with trailing data: status %d via gateway: %s", name, got.status, got.body)
		}
		if got := postRaw(t, f.gw+"/v1/clusters", create+" \n\t"); got.status != http.StatusCreated {
			t.Fatalf("%s: create with trailing whitespace: status %d: %s", name, got.status, got.body)
		}
		if resp, body := get(t, f.gw+"/v1/clusters/"+name); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: created through the gateway but not found on its home replica: %d %s", name, resp.StatusCode, body)
		}
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/predict", `{"name":"s4"} x`},
		{"/v1/predict", `{"name":"s4"}{"name":"s6"}`},
		{"/v1/predict/batch", `{"requests":[{"name":"s4"}]} x`},
	} {
		viaGateway, viaDirect := postRaw(t, f.gw+tc.path, tc.body), postRaw(t, f.direct+tc.path, tc.body)
		if viaDirect.status != http.StatusBadRequest || viaGateway.status != viaDirect.status || !bytes.Equal(viaGateway.body, viaDirect.body) {
			t.Errorf("%s %q: gateway %d %s, direct %d %s", tc.path, tc.body, viaGateway.status, viaGateway.body, viaDirect.status, viaDirect.body)
		}
	}
	if got := postRaw(t, f.gw+"/v1/predict", "{\"name\":\"s4\"}\n"); got.status != http.StatusOK {
		t.Errorf("predict with a trailing newline: status %d: %s", got.status, got.body)
	}
}

// TestResponseFraming: JSON, text and batch answers, large enough that
// net/http would otherwise stream them chunked, carry a Content-Length
// equal to the body, both from a worker and through the gateway.
func TestResponseFraming(t *testing.T) {
	f := newFleet(t, nil)
	var comms []string
	for i := 0; i < 64; i++ {
		comms = append(comms, fmt.Sprintf(`{"src":%d,"dst":%d}`, i%16, 16+(i*7)%16))
	}
	big := `{"comms":[` + strings.Join(comms, ",") + `]}`
	batch := strings.Replace(spanningBatch(t, f.g), `{"requests":[`, `{"requests":[`+big+",", 1)
	for _, tc := range []struct{ path, body string }{
		{"/v1/predict", big},
		{"/v1/predict?format=text", big},
		{"/v1/predict/batch", batch},
	} {
		for _, base := range []string{f.direct, f.gw} {
			resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || len(body) <= 2048 {
				t.Fatalf("%s: status %d, %d-byte body; want a 200 over 2 KB", tc.path, resp.StatusCode, len(body))
			}
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%s%s: Content-Length %d, transfer encoding %v for a %d-byte body", base, tc.path, resp.ContentLength, resp.TransferEncoding, len(body))
			}
		}
	}
}

// TestHeadLikeDirect: a HEAD answer declares a Content-Length but has no
// body. Through the gateway it answers as the worker does directly —
// status, Content-Type, Content-Length — and leaves every upstream
// healthy: an empty body is not a transport failure.
func TestHeadLikeDirect(t *testing.T) {
	f := newFleet(t, nil)
	for _, path := range []string{
		"/v1/healthz",
		"/v1/predict?name=s4",
		"/v1/predict?name=s6&format=text",
		"/v1/predict?name=no-such-scheme",
	} {
		var answers [2]*http.Response
		for i, base := range []string{f.direct, f.gw} {
			resp, err := http.Head(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			answers[i] = resp
		}
		direct, viaGateway := answers[0], answers[1]
		if direct.ContentLength <= 0 {
			t.Fatalf("%s: direct HEAD declares Content-Length %d", path, direct.ContentLength)
		}
		if viaGateway.StatusCode != direct.StatusCode || viaGateway.ContentLength != direct.ContentLength ||
			viaGateway.Header.Get("Content-Type") != direct.Header.Get("Content-Type") {
			t.Errorf("%s: gateway %d %q length %d, direct %d %q length %d", path,
				viaGateway.StatusCode, viaGateway.Header.Get("Content-Type"), viaGateway.ContentLength,
				direct.StatusCode, direct.Header.Get("Content-Type"), direct.ContentLength)
		}
	}
	s := f.g.Snapshot()
	if s.Retries != 0 || s.BadGateway != 0 || s.Unavailable != 0 {
		t.Errorf("retries %d, bad_gateway %d, unavailable %d after HEAD requests; want 0", s.Retries, s.BadGateway, s.Unavailable)
	}
	for _, up := range s.Upstreams {
		if !up.Healthy || up.Errors != 0 {
			t.Errorf("upstream %s: healthy %v, %d errors after HEAD requests", up.Name, up.Healthy, up.Errors)
		}
	}
}
