package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"bwshare/internal/api"
)

// TestBatchSplitMergeByteIdentical drives the batch decomposition path
// against real workers: a batch whose items provably home on different
// replicas is split into per-replica sub-batches and reassembled, and
// the merged document must be byte-identical to a single worker
// answering the whole batch — first cold (every item a miss), then warm
// (every item a hit on its home), with an embedded per-item error along
// for the ride.
func TestBatchSplitMergeByteIdentical(t *testing.T) {
	f := newFleet(t, nil)
	body := spanningBatch(t, f.g)

	for _, pass := range []string{"cold", "warm"} {
		viaGateway := postRaw(t, f.gw+"/v1/predict/batch", body)
		viaDirect := postRaw(t, f.direct+"/v1/predict/batch", body)
		if viaGateway.status != viaDirect.status {
			t.Fatalf("%s pass: status %d via gateway, %d direct", pass, viaGateway.status, viaDirect.status)
		}
		if !bytes.Equal(viaGateway.body, viaDirect.body) {
			t.Fatalf("%s pass: merged batch differs from a single worker's answer\ngateway:\n%s\ndirect:\n%s",
				pass, viaGateway.body, viaDirect.body)
		}
		if viaGateway.contentType != viaDirect.contentType {
			t.Errorf("%s pass: Content-Type %q via gateway, %q direct", pass, viaGateway.contentType, viaDirect.contentType)
		}
	}
	if !strings.Contains(string(postRaw(t, f.gw+"/v1/predict/batch", body).body), `"cached": true`) {
		t.Error("third pass should show cached items — the union cache is not warming")
	}
}

// spanningBatch returns a batch body whose items span schemes, models
// and an embedded per-item 400, and provably home on more than one of
// g's replicas (in-package access to the shard function makes the split
// a checked precondition, not a hope).
func spanningBatch(t *testing.T, g *Gateway) string {
	t.Helper()
	candidates := []string{
		`{"name":"s4"}`,
		`{"name":"s6"}`,
		`{"name":"fig4","model":"infiniband"}`,
		`{"name":"mk2","model":"myrinet"}`,
		`{"name":"fig5","model":"myrinet"}`,
		`{"model":"gige","comms":[{"src":0,"dst":1,"volume":3000001}]}`,
		`{"model":"no-such-model","name":"s4"}`, // embedded per-item 400
	}
	homes := map[string]bool{}
	for _, c := range candidates {
		var req api.PredictRequest
		if err := json.Unmarshal([]byte(c), &req); err != nil {
			t.Fatalf("candidate %s: %v", c, err)
		}
		homes[g.healthyOrder(itemShardKey(api.NewKey(), &req, []byte(c)))[0].name] = true
	}
	if len(homes) < 2 {
		t.Fatalf("candidate items all home on one replica (%v); extend the candidate pool", homes)
	}
	return `{"requests":[` + strings.Join(candidates, ",") + `]}`
}

type rawResponse struct {
	status      int
	contentType string
	body        []byte
}

func postRaw(t *testing.T, url, body string) rawResponse {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawResponse{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: data}
}

// TestBatchSplitForwardsItemBytes: a split batch forwards each item's
// own bytes — spacing, escapes and key order as the client sent them —
// in sub-batches joined from those bytes, and an item that does not
// resolve at all (two scheme forms) keys on its bytes; the merged answer
// is byte-identical to a single worker's, cold and warm.
func TestBatchSplitForwardsItemBytes(t *testing.T) {
	f := newFleet(t, nil)
	items := []string{
		` { "model" : "myrinet" , "name" : "fig5" } `,
		`{"scheme":"a: 0 -> 1 3MB\nb: 1 -> 2\n","static":true}`,
		`{"comms":[{"src":0,"dst":1,"volume":3000001},{"label":"x\"y","src":1,"dst":0}],"model":"ib"}`,
		`{"name":"s1","scheme":"a: 0 -> 1"}`,
		`{"name":"s6"}`,
		`{"name":"mk2","model":"myrinet"}`,
	}
	homes := map[string]bool{}
	k := api.NewKey()
	defer k.Free()
	for _, item := range items {
		var req api.PredictRequest
		if err := api.DecodeJSON([]byte(item), &req); err != nil {
			t.Fatalf("item %s: %v", item, err)
		}
		homes[f.g.healthyOrder(itemShardKey(k, &req, []byte(strings.TrimSpace(item))))[0].name] = true
	}
	if len(homes) < 2 {
		t.Fatalf("items all home on one replica (%v); extend the items", homes)
	}
	body := `{"requests":[` + strings.Join(items, ",") + `]}`
	for _, pass := range []string{"cold", "warm"} {
		viaGateway := postRaw(t, f.gw+"/v1/predict/batch", body)
		viaDirect := postRaw(t, f.direct+"/v1/predict/batch", body)
		if viaGateway.status != http.StatusOK || viaGateway.status != viaDirect.status || !bytes.Equal(viaGateway.body, viaDirect.body) {
			t.Fatalf("%s pass: gateway %d\n%s\ndirect %d\n%s", pass, viaGateway.status, viaGateway.body, viaDirect.status, viaDirect.body)
		}
	}
}
