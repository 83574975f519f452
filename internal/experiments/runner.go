package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Spec is one runnable experiment: an identifier plus a function that
// computes the experiment and renders its text artifact. Run functions
// must be self-contained (they build their own engines), so any subset
// of specs can execute concurrently.
type Spec struct {
	// ID is the short identifier used by the -exp flag (f2, f4, ...).
	ID string
	// Title is a one-line human description.
	Title string
	// Run computes the experiment and renders its artifact.
	Run func() (string, error)
}

// Outcome is the result of running one Spec.
type Outcome struct {
	ID       string
	Title    string
	Artifact string
}

// Runner executes experiment specs over a bounded worker pool. The
// zero value uses runtime.NumCPU() workers. RunSeq emits outcomes in
// spec order regardless of worker count or completion order, so output
// is byte-identical for any parallelism.
type Runner struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
}

// RunSeq executes every spec over the pool and delivers outcomes to
// emit in spec order, each as soon as it and all earlier specs have
// completed — so callers can stream artifacts while later experiments
// are still running. After the first failing spec (in spec order) no
// further outcomes are emitted, no new specs are scheduled, and the
// error is returned; completed earlier artifacts are preserved. The
// emitted sequence is independent of Workers.
func (r Runner) RunSeq(specs []Spec, emit func(Outcome)) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	n := len(specs)
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	jobs := make(chan int)
	results := make(chan indexed[Outcome])
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res := indexed[Outcome]{i: i, v: Outcome{ID: specs[i].ID, Title: specs[i].Title}}
				res.v.Artifact, res.err = specs[i].Run()
				if res.err != nil {
					failed.Store(true)
				}
				results <- res
			}
		}()
	}
	go func() {
		for i := 0; i < n && !failed.Load(); i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	pending := make(map[int]indexed[Outcome])
	next := 0
	var firstErr error
	for r := range results {
		pending[r.i] = r
		for {
			p, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr != nil {
				continue
			}
			if p.err != nil {
				firstErr = fmt.Errorf("%s: %w", p.v.ID, p.err)
				continue
			}
			emit(p.v)
		}
	}
	return firstErr
}

// indexed carries one worker result back to the collector, with the
// error of the work that produced it (RunSeq's specs; parallelMap's
// work cannot fail).
type indexed[T any] struct {
	i   int
	v   T
	err error
}

// parallelMap evaluates f(0..n-1) over a bounded worker pool and
// returns the results in index order. It is the concurrency primitive
// under the randomized sweep: work is fanned out through a jobs channel
// and collected through a results channel, so the output is
// deterministic for any worker count as long as f is pure per index.
func parallelMap[T any](workers, n int, f func(int) T) []T {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	jobs := make(chan int)
	results := make(chan indexed[T])
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results <- indexed[T]{i: i, v: f(i)}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	for r := range results {
		out[r.i] = r.v
	}
	return out
}
