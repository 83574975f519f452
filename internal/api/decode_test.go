package api

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenPredictBodies returns the request bodies of the POST predict
// and batch requests in the committed load replay log.
func goldenPredictBodies(f *testing.F) [][]byte {
	file, err := os.Open("../../scripts/testdata/load_replay.golden")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	var out [][]byte
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec struct {
			Method, Path string
			Body         json.RawMessage
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			f.Fatal(err)
		}
		if rec.Method == "POST" && strings.HasPrefix(rec.Path, "/v1/predict") {
			out = append(out, rec.Body)
		}
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	if len(out) == 0 {
		f.Fatal("the load replay log holds no POST predict request")
	}
	return out
}

// decodeBodies are hand-written bodies around the fast decoder's edges:
// escapes, literals, empty arrays, and what it must leave to
// encoding/json (null, unknown or repeated keys, a key in other case,
// a float in an int field, surrogates, invalid UTF-8, trailing data).
var decodeBodies = []string{
	`{"name":"s4","model":"ib","static":true,"ref_rate":1.5e9}`,
	`{"scheme":"a: 0 -> 1 20MB\nb: 1 -> 2\t# x\\y \"q\" \/ \b\f\r","model":"gige"}`,
	`{"comms":[{"label":"x","src":0,"dst":1,"volume":1e6},{"src":2,"dst":3}],"topology":{"kind":"fattree","switches":4,"hosts_per_switch":4,"oversub":2,"place":"roundrobin"},"faults":[{"kind":"link_down","switch":1,"at":0.005,"until":0.02},{"kind":"host_slow","host":0,"factor":0.5,"at":-0}]}`,
	` { "comms" : [ ] , "faults" : [ ] } `,
	`{"comms":[{"label":"é世","src":-0,"dst":12345678901234567,"volume":12345678901234567890}]}`,
	`{"requests":[{"name":"s1"},{"scheme":"a: 0 -> 1"},{"comms":[{"src":0,"dst":1}]}]}`,
	`{"requests":[]}`,
	`{"requests":[{"Comms":[]}]}`,
	`{"name":null}`,
	`{"name":"s1","extra":1}`,
	`{"name":"s1","name":"s2"}`,
	`{"Name":"s1"}`,
	`{"comms":[{"src":1.0,"dst":2}]}`,
	`{"comms":[{"src":1e400,"dst":2}]}`,
	`{"ref_rate":1e400}`,
	`{"name":"😀"}`,
	"{\"name\":\"\xff\"}",
	`{"name":"s1"} x`,
	`{"name":"s1"}{}`,
	`[]`,
	`{"static":tru}`,
	`{"ref_rate":01}`,
	`{"topology":{"kind":"star","kind":"star"}}`,
}

// FuzzDecodePredict holds the hand-written decoder to encoding/json on
// any body, for both request types: when it accepts a body,
// encoding/json accepts it too and yields a deeply equal value (nil and
// empty slices apart, float bits equal), and DecodeJSON always returns
// what encoding/json returns. For a batch, each item's recorded bytes
// decode to that item. Seeded with the request bodies of the committed
// load replay log.
func FuzzDecodePredict(f *testing.F) {
	for _, body := range goldenPredictBodies(f) {
		f.Add(body)
	}
	for _, body := range decodeBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast, slow, got PredictRequest
		d := decoder{b: data}
		fastOK := d.document(d.predict(&fast))
		slowErr := json.Unmarshal(data, &slow)
		if fastOK && slowErr != nil {
			t.Fatalf("%q: the fast decoder accepts what encoding/json rejects: %v", data, slowErr)
		}
		if fastOK && !sameDecoded(fast, slow) {
			t.Fatalf("%q: fast decode %+v, encoding/json %+v", data, fast, slow)
		}
		if err := DecodeJSON(data, &got); !sameError(err, slowErr) || err == nil && !sameDecoded(got, slow) {
			t.Fatalf("%q: DecodeJSON gives %+v, %v; encoding/json %+v, %v", data, got, err, slow, slowErr)
		}

		var fastBatch, slowBatch, gotBatch BatchRequest
		items, batchOK := decodeBatch(data, &fastBatch, [][]byte{})
		slowErr = json.Unmarshal(data, &slowBatch)
		if batchOK && (slowErr != nil || !sameBatch(fastBatch, slowBatch)) {
			t.Fatalf("%q: fast batch decode %+v; encoding/json %+v, %v", data, fastBatch, slowBatch, slowErr)
		}
		raw, err := DecodeBatch(data, &gotBatch)
		if !sameError(err, slowErr) || err == nil && !sameBatch(gotBatch, slowBatch) {
			t.Fatalf("%q: DecodeBatch gives %+v, %v; encoding/json %+v, %v", data, gotBatch, err, slowBatch, slowErr)
		}
		if batchOK && len(items) != len(fastBatch.Requests) {
			t.Fatalf("%q: %d item ranges for %d items", data, len(items), len(fastBatch.Requests))
		}
		// Re-encoded items (the fallback) may turn an empty slice nil,
		// which no request check tells apart; item bytes cut from the
		// body decode exactly.
		for i := range raw {
			var item PredictRequest
			err := json.Unmarshal(raw[i], &item)
			want, _ := json.Marshal(gotBatch.Requests[i])
			got, _ := json.Marshal(item)
			if err != nil || string(got) != string(want) || batchOK && !sameDecoded(item, gotBatch.Requests[i]) {
				t.Fatalf("%q: item %d bytes %q decode to %+v, %v; want %+v", data, i, raw[i], item, err, gotBatch.Requests[i])
			}
		}
	})
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// sameDecoded compares two decoded requests deeply, nil against empty
// slices too, and floats by their bits.
func sameDecoded(a, b PredictRequest) bool {
	if !reflect.DeepEqual(a, b) || (a.Comms == nil) != (b.Comms == nil) || (a.Faults == nil) != (b.Faults == nil) {
		return false
	}
	bits := math.Float64bits
	if bits(a.RefRate) != bits(b.RefRate) {
		return false
	}
	for i := range a.Comms {
		if bits(a.Comms[i].Volume) != bits(b.Comms[i].Volume) {
			return false
		}
	}
	for i, fa := range a.Faults {
		fb := b.Faults[i]
		if bits(fa.Factor) != bits(fb.Factor) || bits(fa.At) != bits(fb.At) || bits(fa.Until) != bits(fb.Until) {
			return false
		}
	}
	return a.Topology == nil || bits(a.Topology.Oversub) == bits(b.Topology.Oversub)
}

func sameBatch(a, b BatchRequest) bool {
	if len(a.Requests) != len(b.Requests) || (a.Requests == nil) != (b.Requests == nil) {
		return false
	}
	for i := range a.Requests {
		if !sameDecoded(a.Requests[i], b.Requests[i]) {
			return false
		}
	}
	return true
}

// TestDecodePredictFastPath: the bodies the serving workloads send —
// encoding/json's own compact output, scheme text with its escaped
// arrows, batches — are read by the fast decoder, not handed on.
func TestDecodePredictFastPath(t *testing.T) {
	v := 2
	for _, req := range []PredictRequest{
		{Name: "s4", Model: "myrinet", Static: true},
		{Scheme: "a: 0 -> 1 20MB\nb: 1 -> 2\n", RefRate: 1e9},
		{Comms: []CommRequest{{Label: "k1c0", Src: 0, Dst: 1, Volume: 1234000}, {Src: 2, Dst: 3}},
			Topology: &TopologyRequest{Kind: "fattree", Switches: 4, HostsPerSwitch: 4, Oversub: 2},
			Faults:   []FaultRequest{{Kind: "link_degrade", Switch: &v, Factor: 0.25, Until: 0.05}}},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got PredictRequest
		if d := (decoder{b: data}); !d.document(d.predict(&got)) {
			t.Errorf("%s: the fast decoder declines", data)
		}
		batch, err := json.Marshal(BatchRequest{Requests: []PredictRequest{req, req}})
		if err != nil {
			t.Fatal(err)
		}
		var b BatchRequest
		items, ok := decodeBatch(batch, &b, [][]byte{})
		if !ok || len(items) != 2 || string(items[0]) != string(data) {
			t.Errorf("%s: the fast batch decoder gives %q, %v", batch, items, ok)
		}
	}
}

// dtoRoundTrip holds DecodeJSON to its contract for one request type on
// any body: no panic, the same result and error on a second decode, and
// an accepted body encodes to a document that decodes and re-encodes to
// the same bytes.
func dtoRoundTrip[T any](t *testing.T, data []byte) {
	var a, b T
	errA, errB := DecodeJSON(data, &a), DecodeJSON(data, &b)
	if !sameError(errA, errB) || !reflect.DeepEqual(a, b) {
		t.Fatalf("%q decodes as %+v, %v, then as %+v, %v", data, a, errA, b, errB)
	}
	if errA != nil {
		return
	}
	enc, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("%q: encoding %+v: %v", data, a, err)
	}
	var back T
	if err := DecodeJSON(enc, &back); err != nil {
		t.Fatalf("%q: re-encoded as %s, which does not decode: %v", data, enc, err)
	}
	again, err := json.Marshal(back)
	if err != nil || string(again) != string(enc) {
		t.Fatalf("%q: encodes as %s, then as %s (%v)", data, enc, again, err)
	}
}

// The cluster bodies of the serving API: seeds for their fuzz targets.
var clusterBodies = []string{
	`{"name":"c1","model":"ib","ref_rate":1e9,"hosts":16,"topology":{"kind":"fattree","switches":4,"hosts_per_switch":4,"oversub":2},"faults":[{"kind":"link_down","switch":0,"at":0}]}`,
	`{"name":"j1","catalog":"s4","strategy":"greedy","seeds":3}`,
	`{"name":"j2","comms":[{"src":0,"dst":1,"volume":1e6}],"scheme":"a: 0 -> 1"}`,
	`{"comms":[{"label":"x","src":0,"dst":1}],"seeds":2}`,
	`{"catalog":null,"hosts":-1,"Seeds":1e3}`,
	`{"name":"é","topology":{}}`,
}

// FuzzDecodeCluster holds DecodeJSON into ClusterRequest to its
// contract (see dtoRoundTrip).
func FuzzDecodeCluster(f *testing.F) {
	for _, body := range clusterBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) { dtoRoundTrip[ClusterRequest](t, data) })
}

// FuzzDecodeJob holds DecodeJSON into JobRequest to its contract.
func FuzzDecodeJob(f *testing.F) {
	for _, body := range clusterBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) { dtoRoundTrip[JobRequest](t, data) })
}

// FuzzDecodePlacements holds DecodeJSON into PlacementsRequest to its
// contract.
func FuzzDecodePlacements(f *testing.F) {
	for _, body := range clusterBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) { dtoRoundTrip[PlacementsRequest](t, data) })
}
