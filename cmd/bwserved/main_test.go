package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is an io.Writer safe for the run goroutine + test polling.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// startServed runs bwserved on an ephemeral port and returns its base
// URL plus a shutdown function that waits for a clean exit.
func startServed(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	var out syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &out, stop)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var url string
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server did not announce its address; output:\n%s", out.String())
		}
		s := out.String()
		if i := strings.Index(s, "listening on http://"); i >= 0 {
			rest := s[i+len("listening on http://"):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				url = "http://" + rest[:j]
			}
		}
		select {
		case err := <-done:
			t.Fatalf("server exited early: %v; output:\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return url, func() error {
		stop <- os.Interrupt
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("shutdown timed out")
		}
	}
}

func TestServeAndShutdown(t *testing.T) {
	url, shutdown := startServed(t, "-workers", "2", "-cache", "16")
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(url + "/v1/predict?name=s4&model=gige")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\"comms\"") {
		t.Errorf("predict: %d %s", resp.StatusCode, body)
	}
	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestRequestTimeoutFlag: the flag survives flag parsing (including the
// disabled form) and a faulted prediction still serves under it.
func TestRequestTimeoutFlag(t *testing.T) {
	url, shutdown := startServed(t, "-request-timeout", "0s")
	body := `{"name":"s4","model":"gige","faults":[{"kind":"host_slow","host":0,"factor":0.5,"at":0}]}`
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), "\"comms\"") {
		t.Errorf("faulted predict: %d %s", resp.StatusCode, out)
	}
	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-addr", "not-an-address"}, &out, nil); err == nil {
		t.Error("bad address should error")
	}
	if err := run([]string{"-bogus-flag"}, &out, nil); err == nil {
		t.Error("unknown flag should error")
	}
	// The simulator has one engine core; -shards is gone.
	if err := run([]string{"-shards", "2"}, &out, nil); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Errorf("-shards 2: error %v, want an unknown-flag error", err)
	}
}
