package serve

// The durable result cache (internal/resultcache) sits in front of the
// worker pool: a request whose rendered response is already on disk, or
// is being computed for an identical request, is answered without
// claiming a worker slot, decoding a trace, or running the kernel. The cache stores fully rendered response bodies, so the
// hit path is a read + CRC check + write — byte-identical to fresh
// computation by construction, which the equivalence suites then prove
// rather than assume. Only successful (200) bodies are cached; errors,
// timeouts and backpressure are never durable.

import (
	"bytes"
	"encoding/json"
	"net/http"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/resultcache"
	"softcache/internal/trace"
)

const (
	// ResultHeader reports the result-cache outcome ("hit" or "miss") on
	// cacheable endpoints when the daemon runs with -result-cache-dir.
	// The cluster router relays it end to end, so a client can tell a
	// recomputed answer from a fetched one across the whole fleet.
	ResultHeader = "X-Softcache-Result"
	// TraceFingerprintHeader carries the content fingerprint (SHA-256,
	// hex) of a streamed /v1/simulate/trace body — the cache identity of
	// the upload, stamped whether or not a result cache is configured.
	TraceFingerprintHeader = "X-Softcache-Trace-Fingerprint"

	resultHit  = "hit"
	resultMiss = "miss"
)

// canonicalConfigs is the canonical serialization of a built config
// group: the deterministic JSON of the resolved []core.Config. Two
// requests that spell a config differently (named design vs explicit
// overrides) but resolve to the same group share one cache entry.
func canonicalConfigs(cfgs []core.Config) string {
	b, err := json.Marshal(cfgs)
	if err != nil {
		// core.Config is plain data; Marshal cannot fail. Guard anyway:
		// an empty canonical form would alias distinct groups.
		panic("serve: marshal config group: " + err.Error())
	}
	return string(b)
}

// resultKey derives the cache key for one computation. format "" means
// JSON (the API default) so both spellings share an entry.
func (s *Server) resultKey(kind, traceKey, configs, format string) string {
	if format == "" {
		format = "json"
	}
	return resultcache.Key{
		Kind:    kind,
		Trace:   traceKey,
		Configs: configs,
		Version: core.KernelVersion,
		Format:  format,
	}.String()
}

// sweepKeySpec is the canonicalized identity of a sweep computation:
// everything that shapes the response beyond the trace itself.
type sweepKeySpec struct {
	Metric  string          `json:"metric"`
	XKey    string          `json:"x_key"`
	XValues []int           `json:"x_values"`
	YKey    string          `json:"y_key"`
	YValues []int           `json:"y_values"`
	Rows    [][]core.Config `json:"rows"`
}

func canonicalSweep(plan *sweepPlan) string {
	b, err := json.Marshal(sweepKeySpec{
		Metric:  plan.metric,
		XKey:    plan.xAxis.Key,
		XValues: plan.xAxis.Values,
		YKey:    plan.yAxis.Key,
		YValues: plan.yAxis.Values,
		Rows:    plan.rows,
	})
	if err != nil {
		panic("serve: marshal sweep spec: " + err.Error())
	}
	return string(b)
}

// encodeJSON renders v exactly as writeJSON does (two-space indent,
// trailing newline), but to a buffer — the cached bytes and the streamed
// bytes come from the same encoder configuration, so a cache hit is
// byte-identical to a fresh response by construction.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

// renderSimulate produces the body of a successful simulate, whether its
// trace was materialised (/v1/simulate) or streamed (/v1/simulate/trace):
// name and refs describe the trace, and tags are read only by the text
// format. Built in memory so the bytes can be stored as well as sent.
func renderSimulate(format, name string, refs uint64, tags trace.TagCounts, results []core.Result) []byte {
	if format == "text" {
		var buf bytes.Buffer
		for i, res := range results {
			if i > 0 {
				buf.WriteByte('\n')
			}
			metrics.SimulationReport(&buf, tags, res)
		}
		return buf.Bytes()
	}
	resp := SimulateResponse{Trace: name, References: refs}
	for _, res := range results {
		resp.Results = append(resp.Results, ConfigResult{
			Config:      res.Config,
			AMAT:        res.AMAT(),
			MissRatio:   res.MissRatio(),
			WordsPerRef: res.Stats.WordsPerReference(),
			Stats:       res.Stats,
		})
	}
	return encodeJSON(resp)
}

// writeResult sends a rendered response body with its cache outcome.
// outcome "" (no result cache configured) omits the header.
func writeResult(w http.ResponseWriter, format string, body []byte, outcome string) {
	if outcome != "" {
		w.Header().Set(ResultHeader, outcome)
	}
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.Write(body)
}
