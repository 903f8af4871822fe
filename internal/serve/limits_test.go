package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"softcache/internal/core"
)

// TestMaxBodyBytes413 pins the configurable body cap: a request over the
// limit is refused with 413 (not a generic 400), the status the cluster
// router relies on to relay the refusal without retrying.
func TestMaxBodyBytes413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})

	small := `{"workload":"MV","scale":"test","configs":[{"name":"soft"}]}`
	code, body := post(t, ts.URL+"/v1/simulate", small)
	if code != 200 {
		t.Fatalf("request under the cap: %d %s", code, body)
	}

	big := fmt.Sprintf(`{"workload":"MV","scale":"test","seed":1,"din":%q}`, strings.Repeat("r 0 4\n", 100))
	code, body = post(t, ts.URL+"/v1/simulate", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", code, body)
	}
}

// TestShardIdentity pins the fleet-observability satellite: a daemon
// configured with a shard ID stamps responses with X-Softcache-Shard and
// labels itself on /metrics, so the router (and an operator) can tell
// which replica answered.
func TestShardIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{ShardID: "s7"})

	req := `{"workload":"MV","scale":"test","configs":[{"name":"soft"}]}`
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Softcache-Shard"); got != "s7" {
		t.Fatalf("X-Softcache-Shard=%q, want \"s7\"", got)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `softcache_shard_info{shard="s7"} 1`) {
		t.Fatalf("shard info series missing from /metrics:\n%s", metrics)
	}
}

// TestShardIDDefaultsOff: without a shard ID there is no header and the
// info series carries the empty label (the single-process case).
func TestShardIDDefaultsOff(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Softcache-Shard"); got != "" {
		t.Fatalf("unconfigured daemon sent X-Softcache-Shard=%q", got)
	}
}

// TestCacheBudgetGauge: /metrics exposes the trace cache's byte budget
// alongside its occupancy, so capacity planning does not require reading
// the deploy flags.
func TestCacheBudgetGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: 2 << 20})
	_, metrics := get(t, ts.URL+"/metrics")
	if v := metricValue(t, string(metrics), "softcache_trace_cache_budget_bytes"); v != 2<<20 {
		t.Fatalf("budget gauge %v, want %d", v, 2<<20)
	}
}

// TestRoutingKey pins the exported routing-key derivation the cluster
// router shards by: it must equal the daemon's own trace-cache key, so a
// key routed consistently is also cached exactly once fleet-wide.
func TestRoutingKey(t *testing.T) {
	key, err := RoutingKey([]byte(`{"workload":"MV","scale":"test","seed":3,"configs":[{"name":"soft"}]}`))
	if err != nil || key != "workload:MV:test:3" {
		t.Fatalf("RoutingKey = %q, %v; want workload:MV:test:3", key, err)
	}
	// Seed defaults to 1, matching the handler's own defaulting.
	key, err = RoutingKey([]byte(`{"workload":"MV","scale":"test"}`))
	if err != nil || key != "workload:MV:test:1" {
		t.Fatalf("RoutingKey = %q, %v; want workload:MV:test:1", key, err)
	}
	din, err := RoutingKey([]byte(`{"din":"r 0 4\n"}`))
	if err != nil || !strings.HasPrefix(din, "din:") {
		t.Fatalf("RoutingKey(din) = %q, %v; want din:<hash>", din, err)
	}
	if _, err := RoutingKey([]byte(`{"workload":"no-such-workload"}`)); err == nil {
		t.Fatal("RoutingKey accepted an unknown workload")
	}
	if _, err := RoutingKey([]byte(`not json`)); err == nil {
		t.Fatal("RoutingKey accepted a non-JSON body")
	}
}

// specFields maps the override keys a ConfigSpec can set to their wire
// names: the JSON fields of /v1/simulate and the query parameters of
// /v1/simulate/trace.
var specFields = map[string]string{"cache": "cache_kb", "line": "line", "vline": "vline", "latency": "latency", "assoc": "assoc"}

// TestOverrideBoundsEveryEndpoint runs every daemon front door over every
// key it accepts at the edges of core's override table: below the
// minimum, the minimum, the maximum and one past it. Out of range is a 400
// before anything runs; in range is refused only by Validate's rules
// between fields. A zero JSON field or query parameter means "unset", so
// below the minimum is -1 there, and a zero there leaves the named
// design's value.
func TestOverrideBoundsEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for key := range specFields {
		if _, ok := core.LookupOverride(key); !ok {
			t.Fatalf("ConfigSpec field %q names no override", key)
		}
	}
	for _, o := range core.Overrides() {
		for _, v := range []int{o.Min - 1, o.Min, o.Max, o.Max + 1} {
			in := v >= o.Min && v <= o.Max
			expect := func(v int) (core.Config, error) {
				if v < o.Min || v > o.Max {
					return core.Config{}, fmt.Errorf("core: %s=%d out of range", o.Key, v)
				}
				cfg, err := core.ApplyAxis(core.Soft(), o.Key, v)
				if err == nil {
					err = cfg.Validate()
				}
				return cfg, err
			}
			check := func(door string, v int, got []core.Config, aerr *apiError, want core.Config, wantErr error) {
				t.Helper()
				switch {
				case wantErr != nil && aerr == nil:
					t.Errorf("%s %s=%d: accepted, want %v", door, o.Key, v, wantErr)
				case wantErr == nil && aerr != nil:
					t.Errorf("%s %s=%d: %v", door, o.Key, v, aerr)
				case aerr != nil && !strings.Contains(aerr.msg, wantErr.Error()):
					t.Errorf("%s %s=%d: error %q, want it to name %q", door, o.Key, v, aerr.msg, wantErr)
				case aerr == nil && (len(got) != 1 || got[0] != want):
					t.Errorf("%s %s=%d: built %+v, want %+v", door, o.Key, v, got, want)
				}
			}

			want, wantErr := expect(v)
			x := fmt.Sprintf("%s=%d", o.Key, v)
			sw := SweepRequest{traceSelector: traceSelector{Workload: "MV", Scale: "test"}, X: x}
			plan, aerr := sw.validate()
			var cells []core.Config
			if aerr == nil {
				cells = plan.rows[0]
			}
			check("/v1/sweep", v, cells, aerr, want, wantErr)
			if !in {
				body := fmt.Sprintf(`{"workload":"MV","scale":"test","x":%q}`, x)
				if code, resp := post(t, ts.URL+"/v1/sweep", body); code != http.StatusBadRequest {
					t.Errorf("/v1/sweep %s: status %d, want 400 (%s)", x, code, resp)
				}
			}

			field, ok := specFields[o.Key]
			if !ok {
				continue
			}
			wire := v
			if !in && v < o.Min {
				wire = -1
			}
			want, wantErr = expect(wire)
			if wire == 0 && o.Key != "vline" {
				want, wantErr = core.Soft(), nil // zero is "unset"
			}
			var sim SimulateRequest
			if err := json.Unmarshal([]byte(fmt.Sprintf(`{"workload":"MV","scale":"test","configs":[{%q:%d}]}`, field, wire)), &sim); err != nil {
				t.Fatal(err)
			}
			splan, aerr := sim.validate()
			var got []core.Config
			if aerr == nil {
				got = splan.cfgs
			}
			check("/v1/simulate", wire, got, aerr, want, wantErr)

			stream, aerr := parseStreamQuery(url.Values{field: {strconv.Itoa(wire)}})
			got = nil
			if aerr == nil {
				got = stream.cfgs
			}
			check("/v1/simulate/trace", wire, got, aerr, want, wantErr)

			if !in {
				body := fmt.Sprintf(`{"workload":"MV","scale":"test","configs":[{%q:%d}]}`, field, wire)
				if code, resp := post(t, ts.URL+"/v1/simulate", body); code != http.StatusBadRequest {
					t.Errorf("/v1/simulate %s=%d: status %d, want 400 (%s)", field, wire, code, resp)
				}
				q := fmt.Sprintf("%s/v1/simulate/trace?%s=%d", ts.URL, field, wire)
				if code, resp := post(t, q, ""); code != http.StatusBadRequest {
					t.Errorf("/v1/simulate/trace %s=%d: status %d, want 400 (%s)", field, wire, code, resp)
				}
			}
		}
	}
}
