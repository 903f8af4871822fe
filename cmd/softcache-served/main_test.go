package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a bytes.Buffer safe for the daemon goroutine to write while
// the test polls it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs the daemon on a random port and returns its base URL
// plus a shutdown func that triggers the drain and returns the exit code.
func startDaemon(t *testing.T, args ...string) (string, *syncBuf, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out, errb syncBuf
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	code := make(chan int, 1)
	go func() { code <- run(ctx, args, &out, &errb) }()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for base == "" {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon did not announce its address; stdout=%q stderr=%q", out.String(), errb.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				base = rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, &errb, func() int {
		cancel()
		select {
		case c := <-code:
			return c
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not exit after shutdown")
			return -1
		}
	}
}

func TestDaemonServesAndDrains(t *testing.T) {
	base, errb, shutdown := startDaemon(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	req := `{"workload":"MV","scale":"test","configs":[{"name":"soft"}]}`
	resp, err = http.Post(base+"/v1/simulate", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var sim struct {
		Trace   string `json:"trace"`
		Results []struct {
			Config string  `json:"config"`
			AMAT   float64 `json:"amat"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sim); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(sim.Results) != 1 || sim.Results[0].AMAT <= 1 {
		t.Fatalf("simulate: %d %+v", resp.StatusCode, sim)
	}

	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exited %d; stderr=%q", code, errb.String())
	}
}

func TestDaemonDrainWaitsForInflight(t *testing.T) {
	base, errb, shutdown := startDaemon(t, "-drain", "30s")

	// Park a request in the daemon, then shut down while it is in flight:
	// the drain must let it finish and the daemon must still exit 0.
	started := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		req := `{"workload":"SpMV","scale":"test","configs":[{"name":"standard"},{"name":"soft"}]}`
		close(started)
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(req))
		if err != nil {
			result <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	<-started

	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exited %d; stderr=%q", code, errb.String())
	}
	select {
	case status := <-result:
		// The request either completed (200) or lost the race with the
		// listener closing before it connected — but the daemon must not
		// have aborted a request it accepted, so a 5xx is a failure.
		if status >= 500 {
			t.Fatalf("in-flight request aborted with %d during drain", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request still blocked after drain")
	}
}

func TestDaemonUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"stray-arg"},
		{"-queue", "0"},
		{"-drain", "0s"},
		{"-result-cache-bytes", "0"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		ctx, cancel := context.WithCancel(context.Background())
		code := run(ctx, args, &out, &errb)
		cancel()
		if code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr %q)", args, code, errb.String())
		}
		if !strings.HasPrefix(errb.String(), "softcache-served: ") {
			t.Fatalf("args %v: stderr not prefixed: %q", args, errb.String())
		}
	}
}

func TestDaemonBadAddr(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(errb.String(), tool+": ") {
		t.Fatalf("diagnostic missing tool prefix: %q", errb.String())
	}
}

// TestDaemonRouterMode boots three shard daemons plus a router daemon
// in-process, routes traffic through the router, survives one shard
// going down, and drains cleanly.
func TestDaemonRouterMode(t *testing.T) {
	var shardURLs []string
	var shardShutdowns []func() int
	for i := 0; i < 3; i++ {
		base, _, shutdown := startDaemon(t, "-shard", "s"+strconv.Itoa(i))
		shardURLs = append(shardURLs, base)
		shardShutdowns = append(shardShutdowns, shutdown)
	}
	hosts := make([]string, len(shardURLs))
	for i, u := range shardURLs {
		hosts[i] = strings.TrimPrefix(u, "http://")
	}
	base, errb, shutdown := startDaemon(t,
		"-route", strings.Join(hosts, ","),
		"-probe-interval", "100ms",
	)

	req := `{"workload":"MV","scale":"test","configs":[{"name":"soft"}]}`
	var want []byte
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("routed simulate %d: %d %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Softcache-Shard") == "" {
			t.Fatal("routed response lost the shard identity header")
		}
		if i == 0 {
			want = body
		} else if string(body) != string(want) {
			t.Fatal("routed responses for one request body differ")
		}
	}

	// Kill one shard; the fleet must keep answering identically.
	if code := shardShutdowns[0](); code != 0 {
		t.Fatalf("shard 0 exited %d", code)
	}
	shardShutdowns[0] = nil
	for i := 0; i < 3; i++ {
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != string(want) {
			t.Fatalf("post-kill request %d: %d (identical=%v)", i, resp.StatusCode, string(body) == string(want))
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "softcache_router_requests_total 5") {
		t.Fatalf("router metrics missing request count:\n%s", metrics)
	}

	if code := shutdown(); code != 0 {
		t.Fatalf("router exited %d; stderr=%q", code, errb.String())
	}
	for _, stop := range shardShutdowns {
		if stop == nil {
			continue
		}
		if code := stop(); code != 0 {
			t.Fatalf("shard exited %d", code)
		}
	}
}

// postSim posts one simulate request and returns status, headers, body.
func postSim(t *testing.T, base, req string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestDaemonResultCacheRestart is the whole-process restart-recovery
// check: a daemon with -result-cache-dir answers, drains on SIGTERM
// (ctx cancel is the same path), and a new daemon over the same
// directory serves the repeat request from disk — result hit,
// byte-identical body.
func TestDaemonResultCacheRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-result-cache-dir", dir, "-shard", "s0"}
	req := `{"workload":"MV","scale":"test","configs":[{"name":"soft"},{"name":"standard"}]}`

	base, errb, shutdown := startDaemon(t, args...)
	code, hdr, first := postSim(t, base, req)
	if code != 200 || hdr.Get("X-Softcache-Result") != "miss" {
		t.Fatalf("first request: %d result=%q: %s", code, hdr.Get("X-Softcache-Result"), first)
	}
	code, hdr, second := postSim(t, base, req)
	if code != 200 || hdr.Get("X-Softcache-Result") != "hit" {
		t.Fatalf("repeat request: %d result=%q", code, hdr.Get("X-Softcache-Result"))
	}
	if !bytes.Equal(first, second) {
		t.Fatal("hit bytes differ from miss bytes")
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exited %d; stderr=%q", code, errb.String())
	}

	base, errb, shutdown = startDaemon(t, args...)
	defer shutdown()
	code, hdr, third := postSim(t, base, req)
	if code != 200 {
		t.Fatalf("post-restart request: %d %s", code, third)
	}
	if hdr.Get("X-Softcache-Result") != "hit" {
		t.Fatalf("post-restart result = %q, want hit (stderr=%q)", hdr.Get("X-Softcache-Result"), errb.String())
	}
	if !bytes.Equal(first, third) {
		t.Fatal("post-restart response is not byte-identical to the original computation")
	}
}

func TestDaemonRouterUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-route", "ftp://nope:1"},
		{"-route", "a:1,a:1"},
		{"-hedge-after", "-1s"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		ctx, cancel := context.WithCancel(context.Background())
		code := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &errb)
		cancel()
		if code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}
