// Package trace defines application event traces: per-task sequences of
// compute and communication events, the paper's simulator input ("one or
// more application represented by a sequence of events", Section VI-A).
// The format mirrors what the authors extracted from HPL with the MPE
// tracing library.
//
// Traces serialize to JSON Lines: one header object, then one object per
// (task, event) in task order. See Write and Read.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Kind enumerates event kinds.
type Kind string

// Event kinds.
const (
	Compute Kind = "compute" // local computation for Duration seconds
	Send    Kind = "send"    // blocking send of Bytes to task Peer
	Recv    Kind = "recv"    // blocking receive of Bytes from Peer (or any)
	Barrier Kind = "barrier" // global synchronization
)

// AnySource is the Peer value of a receive matching any sender
// (MPI_ANY_SOURCE; the paper's benchmark uses it to avoid fixing the
// receive order).
const AnySource = -1

// Event is one step of a task's program.
type Event struct {
	Kind Kind `json:"kind"`
	// Duration applies to Compute, in seconds.
	Duration float64 `json:"duration,omitempty"`
	// Peer is the peer rank for Send/Recv; AnySource on a Recv matches
	// any sender.
	Peer int `json:"peer,omitempty"`
	// Bytes is the message volume for Send/Recv.
	Bytes float64 `json:"bytes,omitempty"`
	// Tag disambiguates messages between the same pair (matched
	// first-in-first-out per (src, tag); Recv with AnySource matches on
	// tag only).
	Tag int `json:"tag,omitempty"`
}

// Task is one task's whole program.
type Task []Event

// Trace is a complete multi-task application trace.
type Trace struct {
	Tasks []Task
}

// NumTasks returns the number of tasks.
func (t *Trace) NumTasks() int { return len(t.Tasks) }

// Validate checks structural sanity: peer ranks in range, finite
// non-negative compute durations, finite positive volumes, barriers
// aligned (every task has the same number of barriers). A NaN or
// infinite duration or volume has no replay: the engines would report
// it as a deadlock, or a NaN duration as a zero-length step.
func (t *Trace) Validate() error {
	n := len(t.Tasks)
	barriers := -1
	for rank, task := range t.Tasks {
		b := 0
		for i, ev := range task {
			switch ev.Kind {
			case Compute:
				if !(ev.Duration >= 0) || math.IsInf(ev.Duration, 1) {
					return fmt.Errorf("trace: task %d event %d: duration %g is negative or not finite", rank, i, ev.Duration)
				}
			case Send:
				if ev.Peer < 0 || ev.Peer >= n {
					return fmt.Errorf("trace: task %d event %d: send peer %d out of range", rank, i, ev.Peer)
				}
				if ev.Peer == rank {
					return fmt.Errorf("trace: task %d event %d: send to self", rank, i)
				}
				if err := checkBytes(ev.Bytes); err != nil {
					return fmt.Errorf("trace: task %d event %d: %w", rank, i, err)
				}
			case Recv:
				if ev.Peer != AnySource && (ev.Peer < 0 || ev.Peer >= n) {
					return fmt.Errorf("trace: task %d event %d: recv peer %d out of range", rank, i, ev.Peer)
				}
				if err := checkBytes(ev.Bytes); err != nil {
					return fmt.Errorf("trace: task %d event %d: %w", rank, i, err)
				}
			case Barrier:
				b++
			default:
				return fmt.Errorf("trace: task %d event %d: unknown kind %q", rank, i, ev.Kind)
			}
		}
		if barriers == -1 {
			barriers = b
		} else if b != barriers {
			return fmt.Errorf("trace: task %d has %d barriers, task 0 has %d", rank, b, barriers)
		}
	}
	return nil
}

// checkBytes refuses a message volume that is not finite and positive.
func checkBytes(b float64) error {
	if !(b > 0) || math.IsInf(b, 1) {
		return fmt.Errorf("bytes %g are not finite and positive", b)
	}
	return nil
}

// Stats summarizes a trace.
type Stats struct {
	Tasks      int
	Events     int
	Sends      int
	TotalBytes float64
	ComputeSec float64
}

// Summary computes aggregate statistics.
func (t *Trace) Summary() Stats {
	s := Stats{Tasks: len(t.Tasks)}
	for _, task := range t.Tasks {
		s.Events += len(task)
		for _, ev := range task {
			switch ev.Kind {
			case Send:
				s.Sends++
				s.TotalBytes += ev.Bytes
			case Compute:
				s.ComputeSec += ev.Duration
			}
		}
	}
	return s
}

// header is the first JSONL record.
type header struct {
	Format string `json:"format"`
	Tasks  int    `json:"tasks"`
}

// record is one serialized event.
type record struct {
	Task int `json:"task"`
	Event
}

const formatName = "bwshare-trace-v1"

// MaxTasks bounds the task count a trace header may declare. Traces are
// MPI-rank scale (the paper's runs use 16 tasks); a million ranks is far
// beyond any workload here while keeping the worst-case slice a header
// can demand at a few tens of megabytes.
const MaxTasks = 1 << 20

// Write serializes the trace as JSON Lines.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Format: formatName, Tasks: len(t.Tasks)}); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for rank, task := range t.Tasks {
		for _, ev := range task {
			if err := enc.Encode(record{Task: rank, Event: ev}); err != nil {
				return fmt.Errorf("trace: writing event: %w", err)
			}
		}
	}
	return bw.Flush()
}

// Read parses a JSON Lines trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if h.Format != formatName {
		return nil, fmt.Errorf("trace: unknown format %q", h.Format)
	}
	if h.Tasks < 0 {
		return nil, fmt.Errorf("trace: negative task count %d", h.Tasks)
	}
	if h.Tasks > MaxTasks {
		return nil, fmt.Errorf("trace: header declares %d tasks, limit %d", h.Tasks, MaxTasks)
	}
	// The header's task count is untrusted input: ranks are validated
	// against it, but the slice grows only as records arrive, so a tiny
	// file claiming a huge task count cannot make this allocate before
	// it has paid for the events (the final pad is bounded by MaxTasks).
	t := &Trace{}
	for {
		var rec record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: reading event: %w", err)
		}
		if rec.Task < 0 || rec.Task >= h.Tasks {
			return nil, fmt.Errorf("trace: event for task %d, header says %d tasks", rec.Task, h.Tasks)
		}
		if n := rec.Task + 1 - len(t.Tasks); n > 0 {
			t.Tasks = append(t.Tasks, make([]Task, n)...)
		}
		t.Tasks[rec.Task] = append(t.Tasks[rec.Task], rec.Event)
	}
	// Trailing event-free tasks produce no records; restore the declared
	// count so Read(Write(t)) round-trips.
	t.Tasks = append(t.Tasks, make([]Task, h.Tasks-len(t.Tasks))...)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
