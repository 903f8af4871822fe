package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"softcache/internal/bench"
)

// metric is one measured value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"latency_p50_ms": "ms",
	"peak_rss_mb":    "MB",
}

// layerUnits are the per-layer metrics every traced run reports. A layer
// the workload does not cross reads 0.
func layerUnits() map[string]string {
	u := map[string]string{
		"workloads.generate_ms":       "ms",
		"core.single_ns_per_record":   "ns/record",
		"core.fused_ns_per_record":    "ns/record",
		"trace.decode_ns_per_record":  "ns/record",
		"metrics.render_json_us":      "us",
		"metrics.render_text_us":      "us",
		"resultcache.get_us":          "us",
		"resultcache.put_us":          "us",
		"resultcache.hit_ratio":       "ratio",
		"resultcache.stores":          "count",
		"serve.handler_ms":            "ms",
		"serve.http_ms":               "ms",
		"serve.wait_ms":               "ms",
		"serve.busy_share_max":        "ratio",
		"serve.trace_cache_hit_ratio": "ratio",
		"serve.rejections":            "count",
		"serve.trace_decodes":         "count",
		"cluster.hop_ms":              "ms",
		"cluster.home_share_max":      "ratio",
		"cluster.retries":             "count",
		"loadgen.sent":                "count",
		"loadgen.loaded_rps":          "1/s",
		"ledger.unexplained_ms":       "ms",
		"tracing.overhead_share":      "ratio",
	}
	for _, id := range bench.IDs() {
		u[benchMetric(id)] = "s"
	}
	return u
}

// benchMetric names the per-experiment layer metric of a figure id.
func benchMetric(id string) string { return "bench." + id + "_s" }

// report is what one workload run produced.
type report struct {
	lines     []string           // human-readable notes, printed before the result
	e2e       map[string]float64 // end-to-end metrics (always measured)
	layers    map[string]float64 // per-layer metrics (traced runs only)
	attempted int
	failed    int
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notef("FAIL: "+format, args...)
}

// result builds the final line: the end-to-end metrics, or in a traced
// run the per-layer ones. Every listed metric must be present and finite.
func (r *report) result(traced bool) (result, error) {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	var err error
	if traced {
		res.Metrics, err = withUnits(r.layers, layerUnits(), false)
	} else {
		res.Metrics, err = withUnits(r.e2e, e2eUnits, true)
	}
	return res, err
}

// withUnits pairs every metric units lists with its value; a missing one
// is an error when required and 0 otherwise. Every value must be finite.
func withUnits(values map[string]float64, units map[string]string, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := values[name]
		if required && !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	return out, nil
}

// metricLines renders metrics one per line, by name.
func metricLines(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, n := range names {
		lines[i] = fmt.Sprintf("  %-30s %14s %s", n, strconv.FormatFloat(ms[n].Value, 'g', 6, 64), ms[n].Unit)
	}
	return lines
}

func (res result) json() string {
	b, err := json.Marshal(res)
	if err != nil {
		// Values were checked finite in report.result; nothing else fails.
		panic(err)
	}
	return string(b)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
