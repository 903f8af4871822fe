package serve

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeSoak drives a deliberately undersized server (2 workers, queue
// of 2, minimum cache budget so traces evict constantly) with a randomized
// mix of workloads, seeds, invalid requests and client-side cancellations,
// and checks the daemon stays coherent: every response is one of the
// designed statuses, nothing panics, and the counters still add up.
// Randomization is seeded per run but the seed is logged for replay.
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s, ts := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 2,
		CacheBytes: 1, // raised to the 1 MiB floor: constant eviction churn
	})

	seed := time.Now().UnixNano()
	t.Logf("soak seed %d", seed)

	workloadsPool := []string{"MV", "SpMV", "LIV"}
	const clients = 8
	const requestsPerClient = 25

	var wg sync.WaitGroup
	statuses := make(chan int, clients*requestsPerClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for i := 0; i < requestsPerClient; i++ {
				var body string
				switch rng.Intn(10) {
				case 0: // malformed request
					body = `{"workload":` + fmt.Sprint(rng.Intn(100)) + `}`
				case 1: // unknown workload
					body = `{"workload":"missing","configs":[{}]}`
				default:
					w := workloadsPool[rng.Intn(len(workloadsPool))]
					cfgs := []string{`{"name":"soft"}`, `{"name":"standard"}`, `{"name":"victim"}`}
					n := 1 + rng.Intn(3)
					body = fmt.Sprintf(`{"workload":%q,"scale":"test","seed":%d,"configs":[%s]}`,
						w, 1+rng.Intn(3), strings.Join(cfgs[:n], ","))
				}

				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(8) == 0 {
					// An impatient client: cancel quickly, sometimes mid-run.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}
				req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", strings.NewReader(body))
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					statuses <- resp.StatusCode
				} else {
					statuses <- 0 // client-side cancel
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	close(statuses)

	counts := map[int]int{}
	for st := range statuses {
		switch st {
		case 0, 200, 400, 429, 504:
			counts[st]++
		default:
			t.Fatalf("unexpected status %d under load", st)
		}
	}
	t.Logf("status counts: %v", counts)
	if counts[200] == 0 {
		t.Fatal("soak produced no successful responses")
	}

	// The server must still be fully serviceable after the storm.
	code, body := post(t, ts.URL+"/v1/simulate",
		`{"workload":"MV","scale":"test","configs":[{"name":"soft"}]}`)
	if code != 200 {
		t.Fatalf("post-soak simulate: %d %s", code, body)
	}
	// Both gauges must drain to 0. A client that cancelled returns before
	// its handler does, so the handler may still hold its worker slot
	// when the clients are done: poll rather than read once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, mb := get(t, ts.URL+"/metrics")
		if code != 200 {
			t.Fatalf("post-soak metrics: %d", code)
		}
		inflight := metricValue(t, string(mb), "softcache_inflight_requests")
		queued := metricValue(t, string(mb), "softcache_queued_requests")
		if inflight == 0 && queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges did not drain within 5s: inflight %v, queued %v, want 0", inflight, queued)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Byte accounting must have survived the eviction churn.
	checkBytes(t, s.traces)
}
