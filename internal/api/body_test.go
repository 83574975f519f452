package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// renderResults answers a batch of the given items through
// WriteResults and returns the recorded answer.
func renderResults(t *testing.T, items []any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	err := WriteResults(rec, len(items), func(b []byte, i int, prefix string) ([]byte, error) {
		return AppendIndented(b, items[i], prefix)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestResultsRoundTrip: WriteResults renders the envelope exactly as
// WriteJSON renders {"results": items}, with an exact Content-Length,
// and ResultItems cuts the items back out so that splicing them through
// WriteResults again reproduces the document.
func TestResultsRoundTrip(t *testing.T) {
	for _, items := range [][]any{
		{},
		{ErrorBody{Error: "x", Status: 400}},
		{map[string]any{"a": []int{1, 2}, "s": "}]\"\\{[", "e": map[string]any{}}, ErrorBody{Error: "<&>\n"}},
	} {
		rec := renderResults(t, items)
		want := httptest.NewRecorder()
		if err := WriteJSON(want, http.StatusOK, map[string]any{"results": items}); err != nil {
			t.Fatal(err)
		}
		doc := rec.Body.Bytes()
		if !bytes.Equal(doc, want.Body.Bytes()) {
			t.Fatalf("envelope differs from WriteJSON\ngot:\n%s\nwant:\n%s", doc, want.Body.Bytes())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(doc)) {
			t.Errorf("Content-Length %q for a %d-byte body", got, len(doc))
		}
		cut, ok := ResultItems(doc, nil)
		if !ok || len(cut) != len(items) {
			t.Fatalf("ResultItems = %d items, ok=%v; want %d", len(cut), ok, len(items))
		}
		again := httptest.NewRecorder()
		WriteResults(again, len(cut), func(b []byte, i int, _ string) ([]byte, error) { return append(b, cut[i]...), nil })
		if !bytes.Equal(again.Body.Bytes(), doc) {
			t.Fatalf("spliced document differs\ngot:\n%s\nwant:\n%s", again.Body.Bytes(), doc)
		}
	}
}

// TestResultItemsRejects: anything but a valid document in
// WriteResults' exact layout is refused.
func TestResultItemsRejects(t *testing.T) {
	doc := renderResults(t, []any{ErrorBody{Error: "a", Status: 400}, ErrorBody{Error: "b", Status: 503}}).Body.String()
	var compact bytes.Buffer
	json.Compact(&compact, []byte(doc))
	for name, bad := range map[string]string{
		"empty":       "",
		"not json":    "not json",
		"truncated":   doc[:len(doc)/2],
		"no newline":  strings.TrimSuffix(doc, "\n"),
		"extra space": doc + "\n",
		"compact":     compact.String(),
		"other key":   strings.Replace(doc, `"results"`, `"answers"`, 1),
		"scalar item": "{\n  \"results\": [\n    1\n  ]\n}\n",
		"reindented":  strings.ReplaceAll(doc, "\n    ", "\n\t"),
	} {
		if items, ok := ResultItems([]byte(bad), nil); ok {
			t.Errorf("%s: accepted as %d items", name, len(items))
		}
	}
}

func TestDecodeBodyTrailingData(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"name":"s4"}`:            true,
		"{\"name\":\"s4\"} \n\t\r": true,
		" \n{\"name\":\"s4\"}":     true,
		`{"name":"s4"} x`:          false,
		`{"name":"s4"}{}`:          false,
		`{"name":"s4"} 1`:          false,
		`{"name":"s4"}]`:           false,
		`{"name":"s4"`:             false,
		``:                         false,
	} {
		var req PredictRequest
		err := DecodeBody(strings.NewReader(body), &req)
		if (err == nil) != ok {
			t.Errorf("DecodeBody(%q) error %v, want ok=%v", body, err, ok)
		}
		if ok && req.Name != "s4" {
			t.Errorf("DecodeBody(%q) decoded %+v", body, req)
		}
	}
	// A body larger than the pooled buffer decodes too.
	long := `{"scheme":"` + strings.Repeat("0 1\\n", 5000) + `"}`
	var req PredictRequest
	if err := DecodeBody(strings.NewReader(long), &req); err != nil || len(req.Scheme) != 4*5000 {
		t.Fatalf("long body: %v, scheme of %d bytes", err, len(req.Scheme))
	}
}
