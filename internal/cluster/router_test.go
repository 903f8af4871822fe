package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softcache/internal/serve"
)

// simBody builds a deterministic /v1/simulate request; its routing key is
// workload:MV:test:<seed>, the same key the shards' trace caches use.
func simBody(seed uint64) string {
	return fmt.Sprintf(`{"workload":"MV","scale":"test","seed":%d,"configs":[{"name":"soft"}]}`, seed)
}

func simKey(seed uint64) string {
	return fmt.Sprintf("workload:MV:test:%d", seed)
}

// newFleet starts n real serve daemons (shard IDs s0..s{n-1}) and
// returns their test servers.
func newFleet(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	fleet := make([]*httptest.Server, n)
	for i := range fleet {
		s := serve.New(serve.Config{ShardID: fmt.Sprintf("s%d", i), Log: io.Discard})
		fleet[i] = httptest.NewServer(s)
		t.Cleanup(fleet[i].Close)
	}
	return fleet
}

// newTestRouter builds a Router over the given shard URLs with probing
// disabled (request outcomes alone drive the breakers, keeping tests
// deterministic) and mounts it on a test listener.
func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp := postRaw(t, url, body)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// baseline computes the single-process answer the routed fleet must
// reproduce byte for byte.
func baseline(t *testing.T, body string) []byte {
	t.Helper()
	s := serve.New(serve.Config{Log: io.Discard})
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, _, data := post(t, ts.URL+"/v1/simulate", body)
	if code != 200 {
		t.Fatalf("baseline simulate: %d %s", code, data)
	}
	return data
}

// seedOwnedBy finds a simulate seed whose routing key the given shard
// owns, so tests can aim requests at a chosen replica.
func seedOwnedBy(t *testing.T, rt *Router, shard string) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10000; seed++ {
		if rt.ring.Order(simKey(seed))[0] == shard {
			return seed
		}
	}
	t.Fatalf("no seed maps to shard %s", shard)
	return 0
}

func shardURLs(fleet []*httptest.Server) []string {
	urls := make([]string, len(fleet))
	for i, ts := range fleet {
		urls[i] = ts.URL
	}
	return urls
}

func metricValue(t *testing.T, metrics []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(metrics), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, metrics)
	return 0
}

func routerMetricsBody(t *testing.T, routerURL string) []byte {
	t.Helper()
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestNormalizeShard(t *testing.T) {
	for in, want := range map[string]string{
		"localhost:8265":          "http://localhost:8265",
		"http://h:1/":             "http://h:1",
		" https://h:2 ":           "https://h:2",
		"http://user@host:3/path": "http://host:3",
	} {
		got, err := normalizeShard(in)
		if err != nil || got != want {
			t.Errorf("normalizeShard(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "   ", "ftp://h:1", "http://"} {
		if got, err := normalizeShard(bad); err == nil {
			t.Errorf("normalizeShard(%q) = %q, want error", bad, got)
		}
	}
}

func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no shards should fail")
	}
	if _, err := New(Config{Shards: []string{"h:1", "http://h:1"}, ProbeInterval: -1}); err == nil {
		t.Error("New with duplicate shards should fail")
	}
}

func TestRouterProxiesByteIdentical(t *testing.T) {
	fleet := newFleet(t, 3)
	_, ts := newTestRouter(t, Config{Shards: shardURLs(fleet)})

	body := simBody(7)
	want := baseline(t, body)
	code, header, got := post(t, ts.URL+"/v1/simulate", body)
	if code != 200 {
		t.Fatalf("routed simulate: %d %s", code, got)
	}
	if string(got) != string(want) {
		t.Fatalf("routed response differs from single-process baseline:\n%s\nvs\n%s", got, want)
	}
	if header.Get("X-Softcache-Shard") == "" {
		t.Error("routed response lost the shard identity header")
	}
	if header.Get(DegradedHeader) != "" {
		t.Error("healthy fleet marked response degraded")
	}
}

// TestRouterShardsByTraceIdentity pins the fleet-wide single-decode
// property: repeated requests for one trace land on one shard, whose
// cache decodes it exactly once.
func TestRouterShardsByTraceIdentity(t *testing.T) {
	fleet := newFleet(t, 3)
	_, ts := newTestRouter(t, Config{Shards: shardURLs(fleet)})

	body := simBody(11)
	for i := 0; i < 4; i++ {
		code, _, data := post(t, ts.URL+"/v1/simulate", body)
		if code != 200 {
			t.Fatalf("request %d: %d %s", i, code, data)
		}
	}
	decodes := 0.0
	for _, shard := range fleet {
		resp, err := http.Get(shard.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		decodes += metricValue(t, data, "softcache_trace_decodes_total")
	}
	if decodes != 1 {
		t.Fatalf("fleet decoded the trace %v times, want exactly 1", decodes)
	}
}

// TestRouterFailsOverFromKilledShard kills the shard that owns a key
// mid-run and checks the next request for that key still returns the
// byte-identical answer, marked degraded.
func TestRouterFailsOverFromKilledShard(t *testing.T) {
	fleet := newFleet(t, 3)
	rt, ts := newTestRouter(t, Config{Shards: shardURLs(fleet), RetryBackoff: -1})

	victim := 0
	victimURL, err := normalizeShard(fleet[victim].URL)
	if err != nil {
		t.Fatal(err)
	}
	seed := seedOwnedBy(t, rt, victimURL)
	body := simBody(seed)
	want := baseline(t, body)

	// Warm path first: the owner answers.
	code, header, got := post(t, ts.URL+"/v1/simulate", body)
	if code != 200 || string(got) != string(want) || header.Get(DegradedHeader) != "" {
		t.Fatalf("pre-kill request: %d degraded=%q", code, header.Get(DegradedHeader))
	}

	fleet[victim].CloseClientConnections()
	fleet[victim].Close()

	code, header, got = post(t, ts.URL+"/v1/simulate", body)
	if code != 200 {
		t.Fatalf("post-kill request: %d %s", code, got)
	}
	if string(got) != string(want) {
		t.Fatal("failover response is not byte-identical to the baseline")
	}
	if header.Get(DegradedHeader) != "rerouted" {
		t.Fatalf("failover response degraded=%q, want \"rerouted\"", header.Get(DegradedHeader))
	}
	m := routerMetricsBody(t, ts.URL)
	if v := metricValue(t, m, "softcache_router_retries_total"); v < 1 {
		t.Errorf("retries_total=%v after a failover, want >= 1", v)
	}
	if v := metricValue(t, m, "softcache_router_rerouted_total"); v != 1 {
		t.Errorf("rerouted_total=%v, want 1", v)
	}
}

// TestRouterFailsOverMidRequest severs the owner's connection after the
// request is in flight (the server aborts the handler), which the router
// must absorb as a retryable attempt, not a truncated client response.
func TestRouterFailsOverMidRequest(t *testing.T) {
	fleet := newFleet(t, 2)
	var aborted atomic.Bool
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if aborted.CompareAndSwap(false, true) {
			panic(http.ErrAbortHandler) // die mid-request, once
		}
		http.Error(w, "shard restarted, cache cold", http.StatusInternalServerError)
	}))
	t.Cleanup(dying.Close)

	shards := append(shardURLs(fleet), dying.URL)
	rt, ts := newTestRouter(t, Config{Shards: shards, RetryBackoff: -1})
	dyingURL, err := normalizeShard(dying.URL)
	if err != nil {
		t.Fatal(err)
	}
	seed := seedOwnedBy(t, rt, dyingURL)
	body := simBody(seed)
	want := baseline(t, body)

	code, header, got := post(t, ts.URL+"/v1/simulate", body)
	if code != 200 {
		t.Fatalf("mid-request kill: %d %s", code, got)
	}
	if string(got) != string(want) {
		t.Fatal("mid-request failover response is not byte-identical to the baseline")
	}
	if !aborted.Load() {
		t.Fatal("test did not exercise the mid-request abort")
	}
	if header.Get(DegradedHeader) != "rerouted" {
		t.Fatalf("degraded=%q, want \"rerouted\"", header.Get(DegradedHeader))
	}
}

// TestRouterRelays429WithoutRetry: shard backpressure must reach the
// client untouched — retrying a 429 would amplify the very overload it
// signals.
func TestRouterRelays429WithoutRetry(t *testing.T) {
	var hits atomic.Int64
	busy := func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"queue full"}`)
	}
	shards := make([]string, 3)
	for i := range shards {
		ts := httptest.NewServer(http.HandlerFunc(busy))
		t.Cleanup(ts.Close)
		shards[i] = ts.URL
	}
	_, ts := newTestRouter(t, Config{Shards: shards})

	code, header, _ := post(t, ts.URL+"/v1/simulate", simBody(1))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status=%d, want 429 relayed", code)
	}
	if header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After=%q not relayed", header.Get("Retry-After"))
	}
	if hits.Load() != 1 {
		t.Fatalf("fleet saw %d attempts for one 429, want 1 (no retry)", hits.Load())
	}
	m := routerMetricsBody(t, ts.URL)
	if v := metricValue(t, m, "softcache_router_retries_total"); v != 0 {
		t.Errorf("retries_total=%v, want 0", v)
	}
}

func TestRouterBodyCap(t *testing.T) {
	var hits atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	t.Cleanup(shard.Close)
	_, ts := newTestRouter(t, Config{Shards: []string{shard.URL}, MaxBodyBytes: 64})

	code, _, body := post(t, ts.URL+"/v1/simulate", strings.Repeat("x", 65))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status=%d %s, want 413", code, body)
	}
	if hits.Load() != 0 {
		t.Fatal("oversized body reached a shard")
	}
}

// TestRouterHedgeWinsAndCancelsLoser aims a request at a stalled owner
// with hedging on: the hedge must win, the stalled attempt must be
// cancelled, and no goroutine may be left behind.
func TestRouterHedgeWinsAndCancelsLoser(t *testing.T) {
	fast := serve.New(serve.Config{ShardID: "fast", Log: io.Discard})
	fastTS := httptest.NewServer(fast)
	t.Cleanup(fastTS.Close)

	cancelled := make(chan struct{}, 4)
	slowTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only watches for the peer
		// closing the connection (which cancels r.Context) once the
		// request body has been consumed.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			cancelled <- struct{}{}
			return
		case <-time.After(5 * time.Second):
			t.Error("stalled shard was never cancelled")
		}
	}))
	t.Cleanup(slowTS.Close)

	rt, ts := newTestRouter(t, Config{
		Shards:     []string{fastTS.URL, slowTS.URL},
		HedgeAfter: 10 * time.Millisecond,
	})
	slowURL, err := normalizeShard(slowTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	seed := seedOwnedBy(t, rt, slowURL)
	body := simBody(seed)
	want := baseline(t, body)

	before := runtime.NumGoroutine()
	code, header, got := post(t, ts.URL+"/v1/simulate", body)
	if code != 200 {
		t.Fatalf("hedged request: %d %s", code, got)
	}
	if string(got) != string(want) {
		t.Fatal("hedged response is not byte-identical to the baseline")
	}
	if header.Get(DegradedHeader) != "rerouted" {
		t.Fatalf("hedge win off the home shard: degraded=%q, want \"rerouted\"", header.Get(DegradedHeader))
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("stalled shard never saw its context cancelled")
	}
	m := routerMetricsBody(t, ts.URL)
	if v := metricValue(t, m, "softcache_router_hedges_total"); v != 1 {
		t.Errorf("hedges_total=%v, want 1", v)
	}
	if v := metricValue(t, m, "softcache_router_hedge_wins_total"); v != 1 {
		t.Errorf("hedge_wins_total=%v, want 1", v)
	}

	// The loser's goroutine must drain once its context is cancelled.
	rt.client.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before hedge, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterBreakerTripsAndHealthz: with every shard dead, breakers trip,
// the request fails with 502 and the router's own healthz goes 503.
func TestRouterBreakerTripsAndHealthz(t *testing.T) {
	dead := make([]string, 2)
	for i := range dead {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		url := ts.URL
		ts.Close() // bound to a now-dead port: connection refused
		dead[i] = url
	}
	_, ts := newTestRouter(t, Config{
		Shards:       dead,
		Fall:         1,
		Cooldown:     time.Minute,
		RetryBackoff: -1,
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz before any traffic: %d, want 200 (breakers start closed)", resp.StatusCode)
	}

	code, _, body := post(t, ts.URL+"/v1/simulate", simBody(1))
	if code != http.StatusBadGateway {
		t.Fatalf("dead fleet: %d %s, want 502", code, body)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with every breaker open: %d %q, want 503", resp.StatusCode, data)
	}
	m := routerMetricsBody(t, ts.URL)
	if v := metricValue(t, m, "softcache_router_errors_total"); v != 1 {
		t.Errorf("errors_total=%v, want 1", v)
	}
	if !strings.Contains(string(m), `softcache_router_breaker_open{shard=`) {
		t.Error("per-shard breaker gauge missing from /metrics")
	}
}

// TestRouterActiveProbesRecoverBreaker: probes alone (no request
// traffic) must close a tripped breaker once the shard comes back.
func TestRouterActiveProbesRecoverBreaker(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	}))
	t.Cleanup(flaky.Close)

	rt, _ := newTestRouter(t, Config{
		Shards:        []string{flaky.URL},
		ProbeInterval: 5 * time.Millisecond,
		Rise:          2,
		Fall:          2,
		Cooldown:      10 * time.Millisecond,
	})
	url, err := normalizeShard(flaky.URL)
	if err != nil {
		t.Fatal(err)
	}
	st := rt.states[url]

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (state=%v)", what, st.br.State())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("breaker to trip", func() bool { return st.br.Opens() >= 1 })
	down.Store(false)
	waitFor("breaker to close", func() bool { return st.br.State() == breakerClosed })
	if !st.probeOK.Load() {
		t.Error("probeOK gauge not updated by the recovering probe")
	}
}

func TestRouterGETRoutesByPath(t *testing.T) {
	fleet := newFleet(t, 3)
	_, ts := newTestRouter(t, Config{Shards: shardURLs(fleet)})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/workloads")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(data), "workloads") {
			t.Fatalf("GET /v1/workloads via router: %d %s", resp.StatusCode, data)
		}
	}
}

// TestRouterClientHangupsAreNotShardFailures: clients timing out against
// a stalled but healthy shard say nothing about the shard, so its
// failure count stays 0, its breaker stays closed and the router's
// /healthz stays 200.
func TestRouterClientHangupsAreNotShardFailures(t *testing.T) {
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server notices the router hanging up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(stalled.Close)
	shard, err := normalizeShard(stalled.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Shards: []string{shard}, ProbeInterval: -1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	// Count finished simulate handlers, so the metrics are read only
	// after the router has seen every hang-up through.
	var handled sync.WaitGroup
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.ServeHTTP(w, r)
		if r.URL.Path == "/v1/simulate" {
			handled.Done()
		}
	}))
	t.Cleanup(ts.Close)

	client := &http.Client{Timeout: 30 * time.Millisecond}
	for seed := uint64(1); seed <= 3; seed++ {
		handled.Add(1)
		resp, err := client.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody(seed)))
		if err == nil {
			resp.Body.Close()
			t.Fatalf("seed %d: answered %d by a stalled shard, want a client timeout", seed, resp.StatusCode)
		}
	}
	handled.Wait()

	m := routerMetricsBody(t, ts.URL)
	if v := metricValue(t, m, fmt.Sprintf("softcache_router_shard_failures_total{shard=%q}", shard)); v != 0 {
		t.Errorf("shard_failures_total=%v after client hang-ups, want 0", v)
	}
	if v := metricValue(t, m, fmt.Sprintf("softcache_router_breaker_open{shard=%q}", shard)); v != 0 {
		t.Errorf("breaker_open=%v after client hang-ups, want 0", v)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after client hang-ups: %d, want 200", resp.StatusCode)
	}
}

// TestRouterHedgeAccountingWhenBudgetDenies: a hedge the retry budget
// denies never launched, so the primary's answer is neither a hedge win
// nor a hedge loss.
func TestRouterHedgeAccountingWhenBudgetDenies(t *testing.T) {
	fast := httptest.NewServer(serve.New(serve.Config{ShardID: "fast", Log: io.Discard}))
	t.Cleanup(fast.Close)
	slowShard := serve.New(serve.Config{ShardID: "slow", Log: io.Discard})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(50 * time.Millisecond):
		}
		slowShard.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	rt, ts := newTestRouter(t, Config{
		Shards:           []string{fast.URL, slow.URL},
		HedgeAfter:       5 * time.Millisecond,
		RetryBudgetBurst: 1,
	})
	slowURL, err := normalizeShard(slow.URL)
	if err != nil {
		t.Fatal(err)
	}
	body := simBody(seedOwnedBy(t, rt, slowURL))
	want := baseline(t, body)
	// The first request spends the budget's one token on its hedge; the
	// second request's hedge is denied and its slow primary answers.
	for i := 0; i < 2; i++ {
		code, _, got := post(t, ts.URL+"/v1/simulate", body)
		if code != 200 || string(got) != string(want) {
			t.Fatalf("request %d: %d, byte-identical=%v", i, code, string(got) == string(want))
		}
	}
	m := routerMetricsBody(t, ts.URL)
	hedges := metricValue(t, m, "softcache_router_hedges_total")
	wins := metricValue(t, m, "softcache_router_hedge_wins_total")
	losses := metricValue(t, m, "softcache_router_hedge_losses_total")
	if hedges != 1 {
		t.Errorf("hedges_total=%v, want 1", hedges)
	}
	if wins+losses > hedges {
		t.Errorf("hedge accounting inconsistent: wins %v + losses %v > hedges %v", wins, losses, hedges)
	}
	if v := metricValue(t, m, "softcache_router_retry_budget_exhausted_total"); v != 1 {
		t.Errorf("retry_budget_exhausted_total=%v, want 1 (the denied hedge)", v)
	}
}

// TestRouterHedgeThenRetry covers the path where a hedge and a retry
// meet. The home shard stalls past HedgeAfter and then fails, and the
// hedge target fails, so the retry must go to the third shard in ring
// order. With every shard failing, the request stops at exactly
// MaxAttempts shard calls.
func TestRouterHedgeThenRetry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		thirdOK   bool
		wantCode  int
		wantCalls int64
		wantRetry float64
	}{
		{"third shard answers", true, http.StatusOK, 3, 1},
		{"every shard fails", false, http.StatusBadGateway, 6, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := serve.New(serve.Config{ShardID: "good", Log: io.Discard})
			var calls atomic.Int64
			var order atomic.Pointer[[]string] // ring order of the request's key
			handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				seq := *order.Load()
				switch "http://" + r.Host {
				case seq[0]:
					time.Sleep(30 * time.Millisecond)
				case seq[2]:
					if tc.thirdOK {
						good.ServeHTTP(w, r)
						return
					}
				}
				http.Error(w, "shard failed", http.StatusInternalServerError)
			})
			shards := make([]string, 3)
			for i := range shards {
				s := httptest.NewServer(handler)
				t.Cleanup(s.Close)
				shards[i] = s.URL
			}
			rt, ts := newTestRouter(t, Config{
				Shards:       shards,
				HedgeAfter:   5 * time.Millisecond,
				RetryBackoff: -1,
			})
			seq := rt.ring.Order(simKey(1))
			order.Store(&seq)

			code, header, got := post(t, ts.URL+"/v1/simulate", simBody(1))
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d: %s", code, tc.wantCode, got)
			}
			if tc.thirdOK {
				if string(got) != string(baseline(t, simBody(1))) {
					t.Fatal("retried response is not byte-identical to the baseline")
				}
				if header.Get("X-Softcache-Shard") != "good" {
					t.Fatalf("answered by %q, want the third shard", header.Get("X-Softcache-Shard"))
				}
			}
			if n := calls.Load(); n != tc.wantCalls {
				t.Errorf("shard calls=%d, want %d", n, tc.wantCalls)
			}
			m := routerMetricsBody(t, ts.URL)
			if v := metricValue(t, m, "softcache_router_hedges_total"); v != 1 {
				t.Errorf("hedges_total=%v, want 1", v)
			}
			if v := metricValue(t, m, "softcache_router_retries_total"); v != tc.wantRetry {
				t.Errorf("retries_total=%v, want %v", v, tc.wantRetry)
			}
			wins := metricValue(t, m, "softcache_router_hedge_wins_total")
			losses := metricValue(t, m, "softcache_router_hedge_losses_total")
			if wins+losses != 0 {
				t.Errorf("hedge wins %v + losses %v, want 0: no racing attempt answered", wins, losses)
			}
		})
	}
}
