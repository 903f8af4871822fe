package serve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"softcache/internal/core"
)

// FuzzSimulateRequest fuzzes the JSON request decoder and config/axis
// validation of both POST endpoints: arbitrary bodies must produce either
// a client error or a plan whose every config lies inside core's override
// table and passes Validate — never a panic. (Execution is not fuzzed;
// planning is where untrusted input is interpreted.)
func FuzzSimulateRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`not json at all`,
		`{"workload":"MV","scale":"test","configs":[{"name":"soft"}]}`,
		`{"workload":"MV","configs":[{"name":"soft","vline":0}]}`,
		`{"din":"0 1000\n1 2000\n","configs":[{}]}`,
		`{"din":"2 1000\n","configs":[{}]}`,
		`{"workload":"MV","configs":[{"cache_kb":0,"line":0,"assoc":0}]}`,
		`{"workload":"MV","configs":[{"cache_kb":-8}]}`,
		`{"workload":"MV","configs":[{"cache_kb":1e309}]}`,
		`{"workload":"MV","configs":[{"cache_kb":NaN}]}`,
		`{"workload":"MV","configs":[{"latency":1073741824}]}`,
		`{"workload":"MV","configs":[{"assoc":3,"line":48}]}`,
		`{"workload":"MV","configs":[{"vline":-1}]}`,
		`{"workload":"MV","timeout_ms":-9223372036854775808,"configs":[{}]}`,
		"{\"workload\":\"\u0000\",\"configs\":[{}]}",
		`{"x":"cache=4,8","workload":"MV"}`,
		`{"x":"cache=4,8","y":"cache=4","workload":"MV"}`,
		`{"x":"cache=","workload":"MV"}`,
		`{"x":"=4","workload":"MV"}`,
		`{"x":"cache=99999999999999999999","workload":"MV"}`,
		`{"x":"vline=0,0","workload":"MV"}`,
		`{"x":"cache=4","metric":"amat","config":"soft","workload":"MV","y":"bb=0,4"}`,
		`{"workload":"MV","configs":[` + strings.Repeat(`{},`, 64) + `{}]}`,
		"{\"workload\":\"MV\",\"configs\":[{}]}garbage",
	}
	seeds = append(seeds,
		`{"workload":"MV","x":"bb=2000000000"}`,
		`{"workload":"MV","x":"cache=4","y":"sbuf=2000000000"}`)
	for _, o := range core.Overrides() {
		seeds = append(seeds, fmt.Sprintf(`{"workload":"MV","x":"%s=%d"}`, o.Key, o.Max+1))
	}
	for key, field := range specFields {
		o, _ := core.LookupOverride(key)
		seeds = append(seeds, fmt.Sprintf(`{"workload":"MV","configs":[{%q:%d}]}`, field, o.Max+1))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		// Simulate planning path.
		r := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body))
		var sim SimulateRequest
		if aerr := decodeRequest(r, &sim, MaxBodyBytes); aerr == nil {
			if plan, aerr := sim.validate(); aerr == nil {
				for _, cfg := range plan.cfgs {
					checkPlanned(t, cfg)
				}
				// The trace loader interprets untrusted din bytes: it must
				// fail cleanly, never panic. (Workload loads hit the
				// generator, which is trusted and slow — skip those.)
				if strings.HasPrefix(plan.traceKey, "din:") {
					plan.load()
				}
			}
		}
		// Sweep planning path over the same bytes.
		r = httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body))
		var sw SweepRequest
		if aerr := decodeRequest(r, &sw, MaxBodyBytes); aerr == nil {
			if plan, aerr := sw.validate(); aerr == nil {
				for _, row := range plan.rows {
					for _, cfg := range row {
						checkPlanned(t, cfg)
					}
				}
			}
		}
	})
}

// checkPlanned fails when a config an accepted request would simulate
// lies outside core's override table or fails Validate.
func checkPlanned(t *testing.T, cfg core.Config) {
	t.Helper()
	for _, o := range core.Overrides() {
		if v := o.Of(cfg); v < o.Min || v > o.Max {
			t.Fatalf("accepted %s=%d, outside [%d, %d]", o.Key, v, o.Min, o.Max)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("accepted a config Validate rejects: %v", err)
	}
}
