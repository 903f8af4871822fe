// Package serve is the simulation-as-a-service layer: an HTTP JSON API
// over the fused simulation kernel (core.Run), fronted by a
// byte-budgeted decoded-trace cache with request coalescing and a bounded
// worker pool with backpressure. softcache-served is the daemon binary;
// everything here is importable so tests can spin the whole service on a
// random port in-process.
//
// Endpoints:
//
//	POST /v1/simulate        simulate a config group over one trace
//	POST /v1/simulate/trace  simulate a config group over a streamed trace body
//	POST /v1/sweep           sweep one or two axes over one trace
//	GET  /v1/workloads  list the built-in workloads
//	GET  /healthz       liveness probe
//	GET  /metrics       request/latency/cache counters (Prometheus text)
//
// See docs/SERVE.md for the API reference and capacity knobs.
package serve

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"softcache/internal/cache"
	"softcache/internal/core"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// Request-shape limits. The config values a request may set are bounded
// by core's override table (core.Overrides); these bound how much one
// request may ask for, and anything beyond them is rejected with 400
// rather than attempted.
const (
	// MaxBodyBytes is the default request-body cap (a din upload
	// dominates); Config.MaxBodyBytes overrides it per daemon.
	MaxBodyBytes = 32 << 20
	// MaxConfigs bounds the config group of one simulate request.
	MaxConfigs = 64
	// MaxAxisValues bounds one sweep axis; MaxSweepCells bounds the matrix.
	MaxAxisValues = 128
	MaxSweepCells = 4096

	maxTimeoutMS = 1 << 31
)

// apiError is a client-visible failure with its HTTP status.
type apiError struct {
	status int
	msg    string
	// retryAfter, when positive, is rendered as a Retry-After header (in
	// seconds) so backpressure rejections tell clients — and the cluster
	// router — when trying again is worthwhile.
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

// write renders the error as the standard JSON body, with the
// Retry-After header when the failure is backpressure. A 499 writes
// nothing: the client that would read it is gone, and the request
// counters record the empty response as 499.
func (e *apiError) write(w http.ResponseWriter) {
	if e.status == 499 {
		return
	}
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeError(w, e.status, e.msg)
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// ConfigSpec selects one cache configuration: a named design point (see
// core.ConfigNames) plus the same overrides softcache-sim exposes as
// flags, each checked against core's override table. A zero override
// leaves the named design's value in place; vline is a pointer because 0
// is meaningful there (it disables virtual lines).
type ConfigSpec struct {
	Name    string `json:"name,omitempty"` // default "soft"
	CacheKB int    `json:"cache_kb,omitempty"`
	Line    int    `json:"line,omitempty"`
	VLine   *int   `json:"vline,omitempty"`
	Latency int    `json:"latency,omitempty"`
	Assoc   int    `json:"assoc,omitempty"`
}

// build resolves the spec to a validated core.Config.
func (cs ConfigSpec) build() (core.Config, error) {
	name := cs.Name
	if name == "" {
		name = "soft"
	}
	cfg, err := core.ConfigByName(name)
	set := func(key string, v int) {
		if err == nil && v != 0 {
			cfg, err = core.ApplyAxis(cfg, key, v)
		}
	}
	set("cache", cs.CacheKB)
	set("line", cs.Line)
	set("latency", cs.Latency)
	set("assoc", cs.Assoc)
	if err == nil && cs.VLine != nil {
		cfg, err = core.ApplyAxis(cfg, "vline", *cs.VLine)
	}
	if err == nil {
		err = cfg.Validate()
	}
	return cfg, err
}

// traceSelector is the part of a request that names the trace: a built-in
// workload (with scale and seed) or an uploaded din-format trace.
type traceSelector struct {
	Workload string `json:"workload,omitempty"`
	Scale    string `json:"scale,omitempty"` // "test" or "paper" (default)
	Seed     uint64 `json:"seed,omitempty"`  // default 1
	Din      string `json:"din,omitempty"`   // classic Dinero text trace
}

// plan resolves the selector to a cache key and loader. Workload existence
// and scale are validated here, before the request is admitted to the
// pool; loader failures (a malformed din body) surface as *apiError too so
// the handler can map them to 400.
func (ts traceSelector) plan() (key string, load func() (*trace.Trace, error), err error) {
	seed := ts.Seed
	if seed == 0 {
		seed = 1
	}
	switch {
	case ts.Workload != "" && ts.Din != "":
		return "", nil, badRequest("workload and din are mutually exclusive")
	case ts.Din != "":
		if ts.Scale != "" {
			return "", nil, badRequest("scale applies only to built-in workloads")
		}
		sum := sha256.Sum256([]byte(ts.Din))
		key = fmt.Sprintf("din:%x", sum[:12])
		din := ts.Din
		return key, func() (*trace.Trace, error) {
			r, err := trace.NewDinReader(strings.NewReader(din), "din")
			if err != nil {
				return nil, badRequest("%v", err)
			}
			t, err := trace.ReadAll(r)
			if err != nil {
				return nil, badRequest("%v", err)
			}
			return t, nil
		}, nil
	case ts.Workload != "":
		scale := workloads.ScalePaper
		if ts.Scale != "" {
			if scale, err = workloads.ParseScale(ts.Scale); err != nil {
				return "", nil, badRequest("unknown scale %q (want test or paper)", ts.Scale)
			}
		}
		if _, err := workloads.Get(ts.Workload); err != nil {
			return "", nil, badRequest("%v", err)
		}
		name, sc := ts.Workload, scale
		key = fmt.Sprintf("workload:%s:%s:%d", name, sc, seed)
		return key, func() (*trace.Trace, error) { return workloads.Trace(name, sc, seed) }, nil
	default:
		return "", nil, badRequest("need workload or din")
	}
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	traceSelector
	Configs   []ConfigSpec `json:"configs"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// simPlan is a validated simulate request, ready to execute.
type simPlan struct {
	traceKey string
	load     func() (*trace.Trace, error)
	cfgs     []core.Config
	timeout  int64
}

// validate turns the request into an executable plan or a 400.
func (req *SimulateRequest) validate() (*simPlan, *apiError) {
	if len(req.Configs) == 0 {
		return nil, badRequest("need at least one config")
	}
	if len(req.Configs) > MaxConfigs {
		return nil, badRequest("%d configs exceed the per-request limit %d", len(req.Configs), MaxConfigs)
	}
	if req.TimeoutMS < 0 || req.TimeoutMS > maxTimeoutMS {
		return nil, badRequest("timeout_ms %d out of range [0, %d]", req.TimeoutMS, maxTimeoutMS)
	}
	key, load, err := req.plan()
	if err != nil {
		return nil, asAPIError(err)
	}
	p := &simPlan{traceKey: key, load: load, timeout: req.TimeoutMS}
	for i, cs := range req.Configs {
		cfg, err := cs.build()
		if err != nil {
			return nil, badRequest("config %d: %v", i, err)
		}
		p.cfgs = append(p.cfgs, cfg)
	}
	return p, nil
}

// SweepRequest is the body of POST /v1/sweep: the service face of
// softcache-sweep, with the same axis grammar ("key=v1,v2,...").
type SweepRequest struct {
	traceSelector
	Config    string `json:"config,omitempty"` // base config name, default "soft"
	X         string `json:"x"`
	Y         string `json:"y,omitempty"`
	Metric    string `json:"metric,omitempty"` // amat (default), miss, traffic
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// sweepPlan is a validated sweep request: one config group per matrix row,
// each row simulated in a single fused trace pass.
type sweepPlan struct {
	traceKey string
	load     func() (*trace.Trace, error)
	metric   string
	xAxis    core.Axis
	yAxis    core.Axis // Key == "" for one-dimensional sweeps
	rows     [][]core.Config
	timeout  int64
}

func (req *SweepRequest) validate() (*sweepPlan, *apiError) {
	if req.TimeoutMS < 0 || req.TimeoutMS > maxTimeoutMS {
		return nil, badRequest("timeout_ms %d out of range [0, %d]", req.TimeoutMS, maxTimeoutMS)
	}
	if req.X == "" {
		return nil, badRequest("x axis is required")
	}
	xAxis, err := core.ParseAxis(req.X)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	yAxis := core.Axis{Values: []int{0}}
	if req.Y != "" {
		if yAxis, err = core.ParseAxis(req.Y); err != nil {
			return nil, badRequest("%v", err)
		}
		if yAxis.Key == xAxis.Key {
			return nil, badRequest("x and y sweep the same axis %q", xAxis.Key)
		}
	}
	if len(xAxis.Values) > MaxAxisValues || len(yAxis.Values) > MaxAxisValues {
		return nil, badRequest("axis exceeds %d values", MaxAxisValues)
	}
	if len(xAxis.Values)*len(yAxis.Values) > MaxSweepCells {
		return nil, badRequest("sweep exceeds %d cells", MaxSweepCells)
	}
	metric := req.Metric
	if metric == "" {
		metric = "amat"
	}
	if _, err := core.MetricOf(metric, core.Result{}); err != nil {
		return nil, badRequest("%v", err)
	}
	baseName := req.Config
	if baseName == "" {
		baseName = "soft"
	}
	base, err := core.ConfigByName(baseName)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	key, load, terr := req.plan()
	if terr != nil {
		return nil, asAPIError(terr)
	}
	rows, err := core.Grid(base, xAxis, yAxis)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	for _, cfgs := range rows {
		for j, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				return nil, badRequest("cell %s=%d: %v", xAxis.Key, xAxis.Values[j], err)
			}
		}
	}
	return &sweepPlan{traceKey: key, load: load, metric: metric, xAxis: xAxis, yAxis: yAxis, rows: rows, timeout: req.TimeoutMS}, nil
}

// asAPIError converts any error to an apiError, defaulting to 400 (every
// error produced during request validation is the client's).
func asAPIError(err error) *apiError {
	if ae, ok := err.(*apiError); ok {
		return ae
	}
	return badRequest("%v", err)
}

// ConfigResult is the per-configuration payload of a simulate response.
type ConfigResult struct {
	Config      string      `json:"config"`
	AMAT        float64     `json:"amat"`
	MissRatio   float64     `json:"miss_ratio"`
	WordsPerRef float64     `json:"words_per_reference"`
	Stats       cache.Stats `json:"stats"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	Trace      string         `json:"trace"`
	References uint64         `json:"references"`
	Results    []ConfigResult `json:"results"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Trace   string      `json:"trace"`
	Metric  string      `json:"metric"`
	XKey    string      `json:"x_key"`
	XValues []int       `json:"x_values"`
	YKey    string      `json:"y_key,omitempty"`
	YValues []int       `json:"y_values,omitempty"`
	Rows    [][]float64 `json:"rows"`
}

// WorkloadInfo is one entry of the GET /v1/workloads listing.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Kernel      bool   `json:"kernel,omitempty"`
}

// WorkloadsResponse is the body of GET /v1/workloads.
type WorkloadsResponse struct {
	Workloads []WorkloadInfo `json:"workloads"`
	Scales    []string       `json:"scales"`
	Configs   []string       `json:"configs"`
}

// RoutingKey derives the stable trace identity of a simulate or sweep
// request body without validating the rest of it: the same key the
// shards' trace caches use (workload:NAME:SCALE:SEED, or a content hash
// of a din upload), which is exactly what pins a decoded trace — the
// identity trace.Fingerprint captures — to one replica's cache. The
// cluster router consistent-hashes on it; a body whose selector cannot
// be resolved returns an error and the router falls back to hashing the
// whole body, leaving the authoritative 400 to a shard.
func RoutingKey(body []byte) (string, error) {
	var sel traceSelector
	if err := json.Unmarshal(body, &sel); err != nil {
		return "", err
	}
	key, _, err := sel.plan()
	if err != nil {
		return "", err
	}
	return key, nil
}

// decodeRequest strictly decodes one JSON request body into dst: unknown
// fields, trailing garbage and oversized bodies are all client errors.
func decodeRequest(r *http.Request, dst any, maxBody int64) *apiError {
	body := http.MaxBytesReader(nil, r.Body, maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", maxBody),
			}
		}
		return badRequest("decoding request: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return badRequest("trailing data after request body")
	}
	return nil
}
