package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/resultcache"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// newTestServer builds a Server plus an httptest listener around it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (int, []byte) {
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
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// blockLoad starts a Get for key whose load blocks until the returned
// func is called, and returns once that load is running. Requests for key
// then wait on it until their deadline — the deterministic way to occupy
// workers (429 tests) and trip deadlines (504 tests). The returned func
// fails the blocked load; its waiters then run their own loads.
func blockLoad(s *Server, key string) (release func()) {
	started := make(chan struct{})
	unblock := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.traces.Get(context.Background(), key, func() (*trace.Trace, error) {
			close(started)
			<-unblock
			return nil, fmt.Errorf("test: load released")
		})
	}()
	<-started
	var once sync.Once
	return func() {
		once.Do(func() {
			close(unblock)
			<-done
		})
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/workloads")
	if code != 200 {
		t.Fatalf("workloads: %d %s", code, body)
	}
	var resp WorkloadsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Workloads) != len(workloads.Names()) {
		t.Fatalf("listed %d workloads, registry has %d", len(resp.Workloads), len(workloads.Names()))
	}
	if len(resp.Configs) != len(core.ConfigNames()) {
		t.Fatalf("listed %d configs, want %d", len(resp.Configs), len(core.ConfigNames()))
	}
}

// TestSimulateTextMatchesSharedReport pins /v1/simulate?format=text to the
// shared renderer over an independently computed core.Run. The
// CLI side of the bridge (cmd/softcache-sim's TestOutputIsSharedReport)
// pins softcache-sim to the same renderer, making daemon and CLI output
// byte-identical for identical runs.
func TestSimulateTextMatchesSharedReport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"workload":"MV","scale":"test","seed":3,"configs":[{"name":"soft"}]}`
	code, body := post(t, ts.URL+"/v1/simulate?format=text", req)
	if code != 200 {
		t.Fatalf("simulate: %d %s", code, body)
	}

	tr, err := workloads.Trace("MV", workloads.ScaleTest, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Job{Configs: []core.Config{core.Soft()}}, tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	metrics.SimulationReport(&want, tr.CountTags(), res[0])
	if string(body) != want.String() {
		t.Fatalf("text output diverged from metrics.SimulationReport:\n--- server\n%s--- shared\n%s", body, want.String())
	}
}

func TestSimulateJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"workload":"SpMV","scale":"test","configs":[{"name":"standard"},{"name":"soft","vline":128}]}`
	code, body := post(t, ts.URL+"/v1/simulate", req)
	if code != 200 {
		t.Fatalf("simulate: %d %s", code, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(resp.Results))
	}

	tr, err := workloads.Trace("SpMV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	soft := core.Soft()
	soft.VirtualLineSize = 128
	wants, err := core.Run(context.Background(), core.Job{Configs: []core.Config{core.Standard(), soft}}, tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wants {
		got := resp.Results[i]
		if got.Config != want.Config || got.AMAT != want.AMAT() || got.MissRatio != want.MissRatio() {
			t.Fatalf("result %d: got %+v want config=%s amat=%v miss=%v",
				i, got, want.Config, want.AMAT(), want.MissRatio())
		}
		if got.Stats != want.Stats {
			t.Fatalf("result %d: stats diverged from core.Run", i)
		}
	}
	if resp.References != uint64(len(tr.Records)) {
		t.Fatalf("references %d, want %d", resp.References, len(tr.Records))
	}
}

// metricValue extracts one counter from the /metrics text.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestSimulateCoalescing is the tentpole's acceptance test: 8 concurrent
// requests for the same trace must cost exactly one decode, visible both
// in the cache counters and on /metrics.
func TestSimulateCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 8})
	const n = 8
	req := `{"workload":"MV","scale":"test","seed":7,"configs":[{"name":"soft"}]}`

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate?format=text", "application/json", strings.NewReader(req))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == 200 {
				bodies[i], _ = io.ReadAll(resp.Body)
			}
		}(i)
	}
	wg.Wait()

	for i, b := range bodies {
		if len(b) == 0 {
			t.Fatalf("request %d failed", i)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("request %d returned a different report", i)
		}
	}

	cs := s.traces.Stats()
	if cs.Decodes != 1 || cs.Misses != 1 || cs.Hits != n-1 {
		t.Fatalf("coalescing broken: decodes=%d misses=%d hits=%d (want 1/1/%d)",
			cs.Decodes, cs.Misses, cs.Hits, n-1)
	}

	_, mb := get(t, ts.URL+"/metrics")
	if v := metricValue(t, string(mb), "softcache_trace_decodes_total"); v != 1 {
		t.Fatalf("metrics decodes %v, want 1", v)
	}
	if v := metricValue(t, string(mb), "softcache_trace_cache_hits_total"); v != n-1 {
		t.Fatalf("metrics hits %v, want %d", v, n-1)
	}
	if v := metricValue(t, string(mb), `softcache_requests_total{endpoint="simulate"}`); v != n {
		t.Fatalf("metrics simulate requests %v, want %d", v, n)
	}
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"empty body", "/v1/simulate", ``},
		{"not json", "/v1/simulate", `hello`},
		{"trailing garbage", "/v1/simulate", `{"workload":"MV","configs":[{}]} extra`},
		{"unknown field", "/v1/simulate", `{"workload":"MV","configs":[{}],"bogus":1}`},
		{"no trace", "/v1/simulate", `{"configs":[{"name":"soft"}]}`},
		{"no configs", "/v1/simulate", `{"workload":"MV"}`},
		{"unknown workload", "/v1/simulate", `{"workload":"nope","configs":[{}]}`},
		{"bad scale", "/v1/simulate", `{"workload":"MV","scale":"huge","configs":[{}]}`},
		{"workload and din", "/v1/simulate", `{"workload":"MV","din":"0 0","configs":[{}]}`},
		{"din with scale", "/v1/simulate", `{"din":"0 0","scale":"test","configs":[{}]}`},
		{"unknown config", "/v1/simulate", `{"workload":"MV","configs":[{"name":"zz"}]}`},
		{"zero line", "/v1/simulate", `{"workload":"MV","configs":[{"vline":3}]}`},
		{"non-pow2 cache", "/v1/simulate", `{"workload":"MV","configs":[{"cache_kb":3}]}`},
		{"absurd cache", "/v1/simulate", `{"workload":"MV","configs":[{"cache_kb":1048576}]}`},
		{"negative latency", "/v1/simulate", `{"workload":"MV","configs":[{"latency":-5}]}`},
		{"float where int", "/v1/simulate", `{"workload":"MV","configs":[{"cache_kb":8.5}]}`},
		{"nan-ish", "/v1/simulate", `{"workload":"MV","configs":[{"cache_kb":NaN}]}`},
		{"too many configs", "/v1/simulate", tooManyConfigs()},
		{"negative timeout", "/v1/simulate", `{"workload":"MV","configs":[{}],"timeout_ms":-1}`},
		{"bad din", "/v1/simulate", `{"din":"9 zz\n","configs":[{}]}`},
		{"sweep no x", "/v1/sweep", `{"workload":"MV"}`},
		{"sweep bad axis", "/v1/sweep", `{"workload":"MV","x":"warp=1,2"}`},
		{"sweep dup axis", "/v1/sweep", `{"workload":"MV","x":"cache=4,8","y":"cache=16,32"}`},
		{"sweep bad metric", "/v1/sweep", `{"workload":"MV","x":"cache=4,8","metric":"speed"}`},
		{"sweep bad cell", "/v1/sweep", `{"workload":"MV","x":"cache=3,5"}`},
		{"sweep absurd cell", "/v1/sweep", `{"workload":"MV","x":"cache=1048576"}`},
	}
	for _, tc := range cases {
		code, body := post(t, ts.URL+tc.url, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", tc.name, code, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}

	if code, _ := post(t, ts.URL+"/v1/simulate?format=xml",
		`{"workload":"MV","scale":"test","configs":[{}]}`); code != 400 {
		t.Errorf("unknown format: status %d, want 400", code)
	}
}

func tooManyConfigs() string {
	var b strings.Builder
	b.WriteString(`{"workload":"MV","configs":[`)
	for i := 0; i <= MaxConfigs; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"name":"soft"}`)
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestSimulateDin(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var din strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&din, "0 %x\n", 0x1000+i*4)
		fmt.Fprintf(&din, "1 %x\n", 0x8000+i*32)
	}
	body, err := json.Marshal(map[string]any{
		"din":     din.String(),
		"configs": []map[string]any{{"name": "standard"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	code, data := post(t, ts.URL+"/v1/simulate", string(body))
	if code != 200 {
		t.Fatalf("din simulate: %d %s", code, data)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.References != 128 {
		t.Fatalf("references %d, want 128", resp.References)
	}
}

func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	key := "workload:MV:test:1"
	release := blockLoad(s, key)
	defer release()

	req := `{"workload":"MV","scale":"test","configs":[{"name":"soft"}]}`
	// First request occupies the only worker (waiting on the blocked load),
	// second fills the queue; the third must bounce with 429 immediately.
	hold := func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(req))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); hold() }()
	}
	// Wait until one request holds the worker and one is queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.met.inflight.Load() != 1 || s.met.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never filled: inflight=%d queued=%d", s.met.inflight.Load(), s.met.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d %s (want 429)", resp.StatusCode, body)
	}
	// Backpressure must tell clients (and the cluster router) when to
	// come back instead of leaving them to guess.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After=%q, want \"1\"", ra)
	}
	if s.met.rejected.Load() != 1 {
		t.Fatalf("rejected counter %d, want 1", s.met.rejected.Load())
	}

	release()
	wg.Wait()
}

// TestCoalescedWaitersTakeNoWorkerSlot: with the result cache as the
// front door, a request identical to one being computed waits for that
// answer without a worker slot or a queue place, so with one worker and
// one queue place a third, different request is queued, not rejected.
func TestCoalescedWaitersTakeNoWorkerSlot(t *testing.T) {
	rc, err := resultcache.Open(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	s := New(Config{Workers: 1, QueueDepth: 1, ResultCache: rc})
	var arrived atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Add(1)
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	release := blockLoad(s, "workload:MV:test:1")
	defer release()

	send := func(body string) <-chan int {
		status := make(chan int, 1)
		go func() {
			code := 0
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				code = resp.StatusCode
			}
			status <- code
		}()
		return status
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("never saw %s: inflight=%d queued=%d", what, s.met.inflight.Load(), s.met.queued.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	same := `{"workload":"MV","scale":"test","configs":[{"name":"soft"}]}`
	first, second := send(same), send(same)
	waitFor("one request holding the worker", func() bool { return arrived.Load() == 2 && s.met.inflight.Load() == 1 })
	// The identical request reaches its wait within microseconds of
	// arriving; give it ample time to show up in the queue if it would.
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if q := s.met.queued.Load(); q != 0 {
			t.Fatalf("the identical request took a queue place (queued=%d)", q)
		}
	}

	third := send(`{"workload":"MV","scale":"test","seed":2,"configs":[{"name":"soft"}]}`)
	waitFor("the different request queued", func() bool { return s.met.queued.Load() == 1 })
	if n := s.met.rejected.Load(); n != 0 {
		t.Fatalf("rejected %d requests, want 0", n)
	}

	// Releasing the blocked load fails only that load: the computing
	// request then loads the trace itself, and every request is answered.
	release()
	for i, status := range []<-chan int{first, second, third} {
		if code := <-status; code != http.StatusOK {
			t.Fatalf("request %d answered %d, want 200", i+1, code)
		}
	}
}

func TestSimulateTimeout504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	release := blockLoad(s, "workload:SpMV:test:9")
	defer release()

	req := `{"workload":"SpMV","scale":"test","seed":9,"configs":[{"name":"soft"}],"timeout_ms":50}`
	code, body := post(t, ts.URL+"/v1/simulate", req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("blocked trace load: %d %s (want 504)", code, body)
	}
	if s.met.timeouts.Load() != 1 {
		t.Fatalf("timeout counter %d, want 1", s.met.timeouts.Load())
	}
}

// kernelSweep is a /v1/sweep body over the paper-scale MV trace with 128
// cells: 16 fused passes of about 1.2M records each, seconds of kernel
// work, so a deadline or a client cancel lands inside core.Run.
const kernelSweep = `{"workload":"MV","x":"cache=1,2,4,8,16,32,64,128",` +
	`"y":"latency=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16"%s}`

// warmPaperMV loads the paper-scale MV trace into s's trace cache, so a
// request for it goes straight from admission to the kernel.
func warmPaperMV(t *testing.T, s *Server) {
	t.Helper()
	key, load, err := traceSelector{Workload: "MV"}.plan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.traces.Get(context.Background(), key, load); err != nil {
		t.Fatal(err)
	}
}

// statusServer serves s through a listener that reports the status each
// request ended with; 0 means the handler wrote nothing, which the
// request counters record as 499.
func statusServer(t *testing.T, s *Server) (*httptest.Server, <-chan int) {
	t.Helper()
	statuses := make(chan int, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		s.ServeHTTP(sw, r)
		statuses <- sw.status
	}))
	t.Cleanup(ts.Close)
	return ts, statuses
}

// TestSweepKernelTimeout504: a deadline that passes inside the kernel is
// a 504 counted once as a timeout, not a vanished client.
func TestSweepKernelTimeout504(t *testing.T) {
	s := New(Config{})
	warmPaperMV(t, s)
	ts, statuses := statusServer(t, s)

	code, body := post(t, ts.URL+"/v1/sweep", fmt.Sprintf(kernelSweep, `,"timeout_ms":1`))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("sweep: %d %s (want 504)", code, body)
	}
	if got := <-statuses; got != http.StatusGatewayTimeout {
		t.Fatalf("handler status %d, want 504", got)
	}
	if n := s.met.timeouts.Load(); n != 1 {
		t.Fatalf("timeout counter %d, want 1", n)
	}
	if n := s.met.panics.Load(); n != 0 {
		t.Fatalf("panic counter %d, want 0", n)
	}
}

// TestSweepKernelCancel499: a client that goes away while the kernel runs
// ends the request as a 499 — nothing written, no timeout counted.
func TestSweepKernelCancel499(t *testing.T) {
	s := New(Config{})
	warmPaperMV(t, s)
	ts, statuses := statusServer(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep",
		strings.NewReader(fmt.Sprintf(kernelSweep, "")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		// Cancel once the request holds a worker slot and has had time to
		// reach the kernel (the trace is already resident).
		for s.met.inflight.Load() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("sweep finished with %d before the client canceled", resp.StatusCode)
	}

	select {
	case got := <-statuses:
		if got != 0 {
			t.Fatalf("handler wrote status %d, want nothing (499)", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("handler kept running after the client went away")
	}
	if n := s.met.timeouts.Load(); n != 0 {
		t.Fatalf("client cancel recorded as server timeout (%d)", n)
	}
	if n := s.met.failures[epSweep].Load(); n != 1 {
		t.Fatalf("sweep failures %d, want 1 (the 499)", n)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"workload":"MV","scale":"test","config":"soft","x":"cache=4,8","y":"latency=10,20","metric":"amat"}`
	code, body := post(t, ts.URL+"/v1/sweep", req)
	if code != 200 {
		t.Fatalf("sweep: %d %s", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 || len(resp.Rows[0]) != 2 {
		t.Fatalf("matrix shape %dx%d, want 2x2", len(resp.Rows), len(resp.Rows[0]))
	}

	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, lat := range []int{10, 20} {
		for j, kb := range []int{4, 8} {
			cfg, err := core.ApplyAxis(core.Soft(), "latency", lat)
			if err != nil {
				t.Fatal(err)
			}
			if cfg, err = core.ApplyAxis(cfg, "cache", kb); err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(context.Background(), core.Job{Configs: []core.Config{cfg}}, tr.Reader())
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Rows[i][j]; got != want[0].AMAT() {
				t.Fatalf("cell [%d][%d]: got %v, want %v", i, j, got, want[0].AMAT())
			}
		}
	}
}

// TestCanceledClientLeavesNoFailure checks a vanished client is not a
// server failure: the handler stops, nothing is written, and the request
// counts with the sentinel 499 status.
func TestCanceledClientLeavesNoFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	release := blockLoad(s, "workload:MV:test:5")
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate",
		strings.NewReader(`{"workload":"MV","scale":"test","seed":5,"configs":[{"name":"soft"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected the client-side deadline to fire")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.met.requests[epSimulate].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if n := s.met.timeouts.Load(); n != 0 {
		t.Fatalf("client cancel recorded as server timeout (%d)", n)
	}
}
