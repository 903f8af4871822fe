package prom

import (
	"strings"
	"testing"
	"time"
)

func TestRegistrationRejects(t *testing.T) {
	for _, c := range []struct {
		name     string
		register func(*Registry)
	}{
		{"name outside the namespace", func(r *Registry) { r.Counter("requests_total") }},
		{"illegal name", func(r *Registry) { r.Gauge("softcache_queue-depth") }},
		{"counter without _total", func(r *Registry) { r.Counter("softcache_requests") }},
		{"counter func without _total", func(r *Registry) { r.CounterFunc("softcache_hits", func() uint64 { return 0 }) }},
		{"seconds without _total", func(r *Registry) { r.Seconds("softcache_request_seconds") }},
		{"gauge with _total", func(r *Registry) { r.Gauge("softcache_inflight_total") }},
		{"gauge func with _total", func(r *Registry) { r.GaugeFunc("softcache_bytes_total", func() int64 { return 0 }) }},
		{"duplicate series", func(r *Registry) {
			r.Counter("softcache_requests_total", "endpoint", "a")
			r.Counter("softcache_requests_total", "endpoint", "a")
		}},
		{"duplicate unlabelled series", func(r *Registry) {
			r.Gauge("softcache_queued_requests")
			r.GaugeFunc("softcache_queued_requests", func() int64 { return 0 })
		}},
		{"odd labels", func(r *Registry) { r.Counter("softcache_requests_total", "endpoint") }},
		{"illegal label name", func(r *Registry) { r.Counter("softcache_requests_total", "end-point", "a") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("registration accepted")
				}
			}()
			c.register(new(Registry))
		})
	}
}

// TestRender: families render in registration order with one type line
// each, their series grouped under it in registration order, whatever
// order the series were registered in across families.
func TestRender(t *testing.T) {
	var r Registry
	shards := []string{"a", `b"\` + "\n"}
	up := map[string]bool{"a": true}
	var failures []*Counter
	for _, s := range shards {
		failures = append(failures, r.Counter("softcache_shard_failures_total", "shard", s))
		r.GaugeFunc("softcache_shard_up", func() int64 {
			if up[s] {
				return 1
			}
			return 0
		}, "shard", s)
	}
	q := r.Gauge("softcache_queued_requests")
	lat := r.Seconds("softcache_request_seconds_total", "endpoint", "sweep", "shard", "a")
	r.CounterFunc("softcache_hits_total", func() uint64 { return 42 })

	failures[1].Add(3)
	q.Add(2)
	q.Add(-1)
	lat.Add(1500 * time.Millisecond)
	lat.Add(time.Microsecond)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE softcache_shard_failures_total counter
softcache_shard_failures_total{shard="a"} 0
softcache_shard_failures_total{shard="b\"\\\n"} 3
# TYPE softcache_shard_up gauge
softcache_shard_up{shard="a"} 1
softcache_shard_up{shard="b\"\\\n"} 0
# TYPE softcache_queued_requests gauge
softcache_queued_requests 1
# TYPE softcache_request_seconds_total counter
softcache_request_seconds_total{endpoint="sweep",shard="a"} 1.500001
# TYPE softcache_hits_total counter
softcache_hits_total 42
`
	if b.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", b.String(), want)
	}
}
