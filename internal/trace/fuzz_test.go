package trace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bwshare/internal/apps"
	"bwshare/internal/hpl"
	"bwshare/internal/trace"
)

// FuzzTraceRead holds Read to its round-trip contract: any input Read
// accepts is a valid trace, and writing it and reading it back yields a
// deeply equal trace that still validates. The corpus is the
// serialized form of generated application and HPL traces, plus the
// hand-written inputs of the hardening tests: huge and out-of-range
// task counts, ranks past the header, trailing event-free tasks.
func FuzzTraceRead(f *testing.F) {
	seed := func(tr *trace.Trace, err error) {
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(apps.AllToAll(4, 2, 4e6, 1e-3))
	seed(apps.Halo2D(2, 2, 2, 1e5, 2e-3))
	seed(apps.Broadcast(4, 1, 2e6, 0))
	seed(hpl.Generate(hpl.Config{N: 480, NB: 120, P: 4, FlopsPerSec: 3.2e9, ElemBytes: 8, Barrier: true, Jitter: 0.35}))
	seed(&trace.Trace{Tasks: []trace.Task{
		{{Kind: trace.Compute, Duration: 1}},
		{},
		{{Kind: trace.Recv, Peer: trace.AnySource, Bytes: 1, Tag: 3}},
		{{Kind: trace.Send, Peer: 2, Bytes: 1, Tag: 3}},
		{},
	}}, nil)
	head := func(tasks int64) string {
		return fmt.Sprintf("{\"format\":\"bwshare-trace-v1\",\"tasks\":%d}\n", tasks)
	}
	for _, s := range []string{
		head(1000000000000),
		head(trace.MaxTasks + 1),
		head(4) + "{\"task\":4,\"kind\":\"barrier\"}\n",
		head(4) + "{\"task\":-1,\"kind\":\"barrier\"}\n",
		head(2) + "{\"task\":0,\"kind\":\"send\",\"peer\":1,\"bytes\":1e308}\n{\"task\":1,\"kind\":\"recv\",\"bytes\":5e-324}\n",
		head(1) + "{\"task\":0,\"kind\":\"compute\",\"duration\":-0}\n",
		"{\"format\":\"other\",\"tasks\":1}\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, got); err != nil {
			t.Fatalf("Write of an accepted trace: %v", err)
		}
		back, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back.Tasks, got.Tasks)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped trace no longer validates: %v", err)
		}
	})
}
