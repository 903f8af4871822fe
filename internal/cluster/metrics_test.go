package cluster

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"softcache/internal/trace"
	"softcache/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden /metrics scrapes in testdata")

// countingHandler counts the requests h has finished serving, so a test
// can wait until every per-request counter of a daemon has been updated:
// the daemon counts a request after its handler returns, which can be
// after the client has read the whole response.
type countingHandler struct {
	h    http.Handler
	done atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.h.ServeHTTP(w, r)
	c.done.Add(1)
}

// secondsSample matches the running latency sums, the one series whose
// values depend on the host.
var secondsSample = regexp.MustCompile(`(?m)^(softcache_request_seconds_total\{[^}]*\}) .*$`)

// TestMetricsExposition pins the whole /metrics scrape of one daemon
// and of one router in front of it after a fixed request sequence:
// every family's name, type line, labels, order and value. Latency sums
// are masked and the shard's listener URL is normalised.
func TestMetricsExposition(t *testing.T) {
	shard, _ := newCachedShard(t, "s0", t.TempDir())
	daemon := &countingHandler{h: shard}
	ts := httptest.NewServer(daemon)
	t.Cleanup(ts.Close)
	_, rts := newTestRouter(t, Config{Shards: []string{ts.URL}, RetryBackoff: -1})

	flat := flatTraceBytes(t)
	tr, err := workloads.Trace("FFT", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sctz bytes.Buffer
	if err := trace.WriteSCTZ(&sctz, tr); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		method, path, body string
		raw                []byte
		want               int
	}{
		{"POST", "/v1/simulate", simBody(1), nil, 200},
		{"POST", "/v1/simulate", simBody(1), nil, 200},
		{"POST", "/v1/simulate?format=text", simBody(1), nil, 200},
		{"POST", "/v1/sweep", `{"workload":"MV","scale":"test","config":"soft","x":"cache=4,8","metric":"amat"}`, nil, 200},
		{"POST", "/v1/simulate/trace?config=soft", "", flat, 200},
		{"POST", "/v1/simulate/trace?config=soft", "", flat, 200},
		{"POST", "/v1/simulate/trace?config=standard", "", sctz.Bytes(), 200},
		{"GET", "/v1/workloads", "", nil, 200},
		{"POST", "/v1/simulate", `{"workload":"nope","configs":[{}]}`, nil, 400},
		{"GET", "/healthz", "", nil, 200}, // answered by the router itself
	}
	for i, st := range steps {
		var resp *http.Response
		var err error
		switch {
		case st.method == "GET":
			resp, err = http.Get(rts.URL + st.path)
		case st.raw != nil:
			resp, err = http.Post(rts.URL+st.path, "application/octet-stream", bytes.NewReader(st.raw))
		default:
			resp, err = http.Post(rts.URL+st.path, "application/json", strings.NewReader(st.body))
		}
		if err != nil {
			t.Fatalf("step %d %s %s: %v", i, st.method, st.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != st.want {
			t.Fatalf("step %d %s %s: status %d, want %d", i, st.method, st.path, resp.StatusCode, st.want)
		}
	}
	const proxied = 9 // every step but the router's own /healthz
	deadline := time.Now().Add(10 * time.Second)
	for daemon.done.Load() < proxied {
		if time.Now().After(deadline) {
			t.Fatalf("daemon finished %d of %d requests", daemon.done.Load(), proxied)
		}
		time.Sleep(time.Millisecond)
	}

	normalise := func(b []byte) string {
		s := strings.ReplaceAll(string(b), ts.URL, "http://SHARD")
		return secondsSample.ReplaceAllString(s, "$1 SECONDS")
	}
	checkGolden(t, "metrics_router.golden", normalise(routerMetricsBody(t, rts.URL)))
	checkGolden(t, "metrics_daemon.golden", normalise(shardMetricsBody(t, ts.URL)))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the scrape (rerun with -update only if the change is intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
