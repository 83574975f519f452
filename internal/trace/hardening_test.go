package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestReadMaliciousHeader is the PR-4 regression test: a tiny file whose
// header claims an absurd task count must be rejected up front instead
// of pre-allocating a slice for 10^12 tasks (an OOM before the first
// event is read).
func TestReadMaliciousHeader(t *testing.T) {
	src := fmt.Sprintf("{\"format\":%q,\"tasks\":1000000000000}\n", formatName)
	if _, err := Read(strings.NewReader(src)); err == nil {
		t.Fatal("a header claiming 1e12 tasks was accepted")
	} else if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Just above the limit is rejected, the limit itself is structural
	// (no events, so it only pads) and must not error.
	src = fmt.Sprintf("{\"format\":%q,\"tasks\":%d}\n", formatName, MaxTasks+1)
	if _, err := Read(strings.NewReader(src)); err == nil {
		t.Fatal("a header just above MaxTasks was accepted")
	}
	// The pad to the declared count grows the task slice in one step,
	// not one task at a time.
	src = fmt.Sprintf("{\"format\":%q,\"tasks\":%d}\n", formatName, MaxTasks)
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := Read(strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 20 {
		t.Errorf("reading a header that declares MaxTasks tasks allocates %v objects, want under 20", allocs)
	}
}

// TestReadDoesNotPreallocateFromHeader: a claimed-but-plausible task
// count with an out-of-range event errors on the event, and the slice
// growth is driven by the records actually present.
func TestReadRankValidation(t *testing.T) {
	head := fmt.Sprintf("{\"format\":%q,\"tasks\":4}\n", formatName)
	if _, err := Read(strings.NewReader(head + "{\"task\":4,\"kind\":\"barrier\"}\n")); err == nil {
		t.Error("rank beyond the declared count was accepted")
	}
	if _, err := Read(strings.NewReader(head + "{\"task\":-1,\"kind\":\"barrier\"}\n")); err == nil {
		t.Error("negative rank was accepted")
	}
}

// TestReadRoundTripsTrailingEmptyTasks: tasks with no events produce no
// records; Read must still restore the declared task count so that
// Read(Write(t)) round-trips.
func TestReadRoundTripsTrailingEmptyTasks(t *testing.T) {
	orig := &Trace{Tasks: []Task{
		{{Kind: Compute, Duration: 1}},
		{}, // empty middle task
		{{Kind: Compute, Duration: 2}},
		{}, // empty trailing tasks
		{},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != orig.NumTasks() {
		t.Fatalf("round trip lost tasks: %d, want %d", got.NumTasks(), orig.NumTasks())
	}
	for i := range orig.Tasks {
		if len(got.Tasks[i]) != len(orig.Tasks[i]) {
			t.Errorf("task %d: %d events, want %d", i, len(got.Tasks[i]), len(orig.Tasks[i]))
		}
	}
}

// TestValidateRejectsNonFinite: a NaN or infinite compute duration or
// message volume has no replay — a NaN duration ran as a zero-length
// step, and the others surfaced as a replay deadlock — so Validate
// refuses each, on a send, on a receive and on a compute event, and
// still accepts the finite neighbours (a zero duration, the largest
// finite volume).
func TestValidateRejectsNonFinite(t *testing.T) {
	pair := func(compute, sendBytes, recvBytes float64) *Trace {
		return &Trace{Tasks: []Task{
			{{Kind: Compute, Duration: compute}, {Kind: Send, Peer: 1, Bytes: sendBytes}},
			{{Kind: Recv, Peer: 0, Bytes: recvBytes}},
		}}
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]*Trace{
		"NaN duration":    pair(nan, 1e6, 1e6),
		"+Inf duration":   pair(inf, 1e6, 1e6),
		"-Inf duration":   pair(-inf, 1e6, 1e6),
		"NaN send bytes":  pair(0, nan, 1e6),
		"+Inf send bytes": pair(0, inf, 1e6),
		"NaN recv bytes":  pair(0, 1e6, nan),
		"+Inf recv bytes": pair(0, 1e6, inf),
		"-Inf recv bytes": pair(0, 1e6, -inf),
	}
	for name, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, tr := range []*Trace{pair(0, 1e6, 1e6), pair(1e-3, math.MaxFloat64, math.MaxFloat64)} {
		if err := tr.Validate(); err != nil {
			t.Errorf("finite trace rejected: %v", err)
		}
	}
}
