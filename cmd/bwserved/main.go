// Command bwserved is the long-running HTTP cluster service: the
// paper's penalty models served over a JSON API (internal/server), with
// a bounded worker pool of reusable simulator sessions, an LRU response
// cache for repeated schemes, and a stateful multi-tenant cluster
// manager (internal/fleet) whose placement engine ranks candidate
// task-to-host mappings by what-if simulation.
//
// Usage:
//
//	bwserved                          # listen on :8080
//	bwserved -addr 127.0.0.1:0        # ephemeral port, printed on stdout
//	bwserved -workers 8 -cache 4096
//	bwserved -request-timeout 5s      # 503 predictions that run longer
//
// Prediction endpoints: POST /v1/predict, POST /v1/predict/batch,
// GET /v1/predict (catalog schemes), GET /v1/models, GET /v1/schemes,
// GET /v1/healthz, GET /v1/stats. `?format=text` on /v1/predict renders
// exactly the stdout of `bwpredict -model <m> -scheme <s>` — the CI
// smoke step diffs the two. Predict requests may carry a "faults"
// block scheduling link outages, degradations and host slowdowns; the
// prediction then runs on the dynamic fabric (see internal/server for
// the schema). Each request gets -request-timeout (default 30s, batch
// items individually) to queue for a worker and simulate; exceeding it
// returns 503. A non-positive duration disables the deadline.
//
// Cluster endpoints: POST/GET /v1/clusters,
// GET/DELETE /v1/clusters/{name}, POST/GET /v1/clusters/{name}/jobs,
// GET/DELETE /v1/clusters/{name}/jobs/{job}, and
// POST /v1/clusters/{name}/placements to rank placements without
// admitting. See the README's "Cluster API" section for request and
// response examples.
//
// The process shuts down cleanly on SIGINT or SIGTERM, draining in-flight
// requests for up to 5 seconds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bwshare/internal/server"
)

// shutdownGrace bounds how long a SIGINT/SIGTERM drain may take.
const shutdownGrace = 5 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "bwserved:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until a fatal serve error or a stop
// signal. stop overrides the OS signal channel in tests; nil installs
// SIGINT/SIGTERM handling.
func run(args []string, out io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("bwserved", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address (host:port, port 0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent prediction workers (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 0, "response cache capacity in entries (0 = default 1024, negative disables)")
	timeout := fs.Duration("request-timeout", server.DefaultRequestTimeout,
		"per-request deadline for queueing and simulation (503 on exceed; <= 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag surface uses <= 0 to disable; the Config field reserves 0
	// for "default" so zero-valued configs stay safe elsewhere.
	rt := *timeout
	if rt <= 0 {
		rt = -1
	}
	s := server.New(server.Config{Workers: *workers, CacheSize: *cache, RequestTimeout: rt})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	st := s.Snapshot()
	fmt.Fprintf(out, "bwserved: listening on http://%s (workers=%d, cache=%d entries)\n",
		ln.Addr(), st.Workers, st.CacheCapacity)
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		stop = sig
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
		fmt.Fprintln(out, "bwserved: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
