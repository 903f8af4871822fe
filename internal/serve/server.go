package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"softcache/internal/core"
	"softcache/internal/resultcache"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// Config sizes the service. The zero value is usable: every field has a
// default chosen for an interactive daemon on one machine.
type Config struct {
	// Workers bounds the simulations running concurrently (default:
	// GOMAXPROCS). One request occupies one worker for its whole run — the
	// fused kernel already uses a single goroutine per config group.
	Workers int
	// QueueDepth bounds the requests waiting for a worker (default 64).
	// Requests beyond it are rejected immediately with 429 so load sheds
	// at the door instead of stacking up timeouts.
	QueueDepth int
	// CacheBytes is the decoded-trace cache budget (default 256 MiB).
	CacheBytes int64
	// DefaultTimeout bounds a request that does not ask for a deadline
	// (default 60s); MaxTimeout caps what a request may ask for (default
	// 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps one request body (default MaxBodyBytes, 32 MiB;
	// softcache-served's -max-body flag). The cluster router applies the
	// same cap before forwarding. Streamed trace bodies
	// (POST /v1/simulate/trace) are exempt: they decode in O(batch)
	// memory, so the meaningful bound is MaxTraceRecords, not bytes.
	MaxBodyBytes int64
	// MaxTraceRecords caps how many records one streamed trace body may
	// decode (default trace.MaxRecords; softcache-served's
	// -max-trace-records flag). Exceeding it fails the request with 413.
	MaxTraceRecords int64
	// ShardID labels this daemon in a fleet: when set, every response
	// carries it in the X-Softcache-Shard header and /metrics exposes it
	// as softcache_shard_info, so cluster tests and dashboards can tell
	// which replica served (and holds the trace resident).
	ShardID string
	// ResultCache, when non-nil, is the durable result cache consulted
	// before the worker pool on simulate/sweep/stream requests and
	// written behind on success (softcache-served opens it from
	// -result-cache-dir). The Server does not own it: the caller that
	// opened the cache closes it, after the listener has drained.
	ResultCache *resultcache.Cache
	// Log receives failure records (panics with stacks, timeouts); nil
	// discards them.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = MaxBodyBytes
	}
	if c.MaxTraceRecords <= 0 {
		c.MaxTraceRecords = trace.MaxRecords
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// Server is the simulation service: an http.Handler plus the shared state
// behind it (trace cache, admission pool, counters). Create with New and
// mount on any http.Server; graceful drain is the listener's business
// (http.Server.Shutdown), which softcache-served wires to SIGTERM.
type Server struct {
	cfg     Config
	traces  *TraceCache
	results *resultcache.Cache // nil: no durable result cache configured
	met     *serverMetrics
	sem     chan struct{} // worker slots
	mux     *http.ServeMux
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		traces:  NewTraceCache(cfg.CacheBytes),
		results: cfg.ResultCache,
		met:     &serverMetrics{},
		sem:     make(chan struct{}, cfg.Workers),
		mux:     http.NewServeMux(),
	}
	s.mux.Handle("POST /v1/simulate", s.instrument(epSimulate, s.handleSimulate))
	s.mux.Handle("POST /v1/simulate/trace", s.instrument(epSimulateTrace, s.handleSimulateTrace))
	s.mux.Handle("POST /v1/sweep", s.instrument(epSweep, s.handleSweep))
	s.mux.Handle("GET /v1/workloads", s.instrument(epWorkloads, s.handleWorkloads))
	s.mux.Handle("GET /healthz", s.instrument(epHealthz, s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument(epMetrics, s.handleMetrics))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter captures the response status for the request counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps a handler with the per-endpoint request, failure and
// latency counters.
func (s *Server) instrument(ep endpoint, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.ShardID != "" {
			w.Header().Set("X-Softcache-Shard", s.cfg.ShardID)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.status == 0 {
			// The handler wrote nothing: the client went away mid-request.
			sw.status = 499
		}
		s.met.observe(ep, sw.status, time.Since(start))
	})
}

// writeError sends a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// admit claims a worker slot, queueing up to QueueDepth requests, and
// returns the release func. A full queue rejects immediately (429); a
// client that goes away while queued is released without running.
func (s *Server) admit(ctx context.Context) (release func(), err *apiError) {
	select {
	case s.sem <- struct{}{}:
	default:
		if s.met.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.met.queued.Add(-1)
			s.met.rejected.Add(1)
			// Retry-After tells clients (and the cluster router, which
			// relays rather than retries backpressure) when the queue is
			// worth another look.
			return nil, &apiError{status: http.StatusTooManyRequests,
				msg:        fmt.Sprintf("queue full (%d waiting); retry later", s.cfg.QueueDepth),
				retryAfter: 1}
		}
		defer s.met.queued.Add(-1)
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, &apiError{status: 499, msg: "client went away while queued"}
		}
	}
	s.met.inflight.Add(1)
	return func() {
		s.met.inflight.Add(-1)
		<-s.sem
	}, nil
}

// timeoutFor clamps a request's timeout_ms to the service bounds.
func (s *Server) timeoutFor(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// loadTrace fetches (or decodes) the plan's trace through the coalescing
// cache, mapping context errors to HTTP statuses.
func (s *Server) loadTrace(ctx context.Context, key string, load func() (*trace.Trace, error)) (*trace.Trace, *apiError) {
	tr, err := s.traces.Get(ctx, key, load)
	switch {
	case err == nil:
		return tr, nil
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		return nil, &apiError{status: http.StatusGatewayTimeout, msg: "deadline exceeded while loading trace"}
	case errors.Is(err, context.Canceled):
		return nil, &apiError{status: 499, msg: "client went away"}
	default:
		return nil, asAPIError(err)
	}
}

// runKernel runs one config group through core.Run under the request's
// deadline, containing a kernel panic, and maps the outcome to an HTTP
// status: a panic is 500, the deadline passing is 504, a vanished client
// (rctx done) is 499. onErr, when non-nil, maps any other run error to
// its status; nil means such errors are the server's fault (500) — the
// cached path validated everything up front.
func (s *Server) runKernel(rctx context.Context, deadline time.Time, cfgs []core.Config, r trace.BatchReader, onErr func(error) *apiError) (results []core.Result, aerr *apiError) {
	ctx, cancel := context.WithDeadline(rctx, deadline)
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			s.met.panics.Add(1)
			fmt.Fprintf(s.cfg.Log, "serve: simulating %s panicked: %v\n%s", r.Name(), p, debug.Stack())
			results, aerr = nil, &apiError{status: http.StatusInternalServerError, msg: "simulation panicked (see server log)"}
		}
	}()
	results, err := core.Run(ctx, core.Job{Configs: cfgs}, r)
	switch {
	case err == nil:
		return results, nil
	case rctx.Err() != nil:
		return nil, &apiError{status: 499, msg: "client went away"}
	case ctx.Err() != nil:
		s.met.timeouts.Add(1)
		fmt.Fprintf(s.cfg.Log, "serve: simulating %s: deadline exceeded: %v\n", r.Name(), err)
		return nil, &apiError{status: http.StatusGatewayTimeout, msg: "simulation deadline exceeded"}
	case onErr != nil:
		return nil, onErr(err)
	default:
		return nil, &apiError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if aerr := decodeRequest(r, &req, s.cfg.MaxBodyBytes); aerr != nil {
		aerr.write(w)
		return
	}
	plan, aerr := req.validate()
	if aerr != nil {
		aerr.write(w)
		return
	}
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "text" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json or text)", format))
		return
	}

	// Result-cache fast path: a hit costs no worker slot, no trace, no
	// kernel run — the rendered body comes straight off the segment log.
	var key string
	if s.results != nil {
		key = s.resultKey("simulate", plan.traceKey, canonicalConfigs(plan.cfgs), format)
		if body, ok := s.results.Get(key); ok {
			writeResult(w, format, body, resultHit)
			return
		}
	}

	release, aerr := s.admit(r.Context())
	if aerr != nil {
		if aerr.status != 499 {
			aerr.write(w)
		}
		return
	}
	defer release()

	deadline := time.Now().Add(s.timeoutFor(plan.timeout))
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()

	compute := func() ([]byte, *apiError) {
		tr, aerr := s.loadTrace(ctx, plan.traceKey, plan.load)
		if aerr != nil {
			return nil, aerr
		}
		// Pass the cancel-only request context: runKernel applies the
		// deadline itself so it can tell a timeout (504) from a vanished
		// client.
		results, aerr := s.runKernel(r.Context(), deadline, plan.cfgs, tr.Reader(), nil)
		if aerr != nil {
			return nil, aerr
		}
		return renderSimulate(format, tr, results), nil
	}
	body, hit, aerr := s.resultDo(r.Context(), key, compute)
	if aerr != nil {
		if aerr.status != 499 {
			aerr.write(w)
		}
		return
	}
	writeResult(w, format, body, s.resultOutcome(hit))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if aerr := decodeRequest(r, &req, s.cfg.MaxBodyBytes); aerr != nil {
		aerr.write(w)
		return
	}
	plan, aerr := req.validate()
	if aerr != nil {
		aerr.write(w)
		return
	}

	// Result-cache fast path (sweep responses are always JSON).
	var key string
	if s.results != nil {
		key = s.resultKey("sweep", plan.traceKey, canonicalSweep(plan), "json")
		if body, ok := s.results.Get(key); ok {
			writeResult(w, "json", body, resultHit)
			return
		}
	}

	release, aerr := s.admit(r.Context())
	if aerr != nil {
		if aerr.status != 499 {
			aerr.write(w)
		}
		return
	}
	defer release()

	deadline := time.Now().Add(s.timeoutFor(plan.timeout))
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()

	compute := func() ([]byte, *apiError) {
		tr, aerr := s.loadTrace(ctx, plan.traceKey, plan.load)
		if aerr != nil {
			return nil, aerr
		}
		resp := SweepResponse{
			Trace:   tr.Name,
			Metric:  plan.metric,
			XKey:    plan.xAxis.Key,
			XValues: plan.xAxis.Values,
			YKey:    plan.yAxis.Key,
		}
		if plan.yAxis.Key != "" {
			resp.YValues = plan.yAxis.Values
		}
		// One fused pass per matrix row, sequential within the request's
		// single worker slot: request-level parallelism stays with the pool.
		for _, cfgs := range plan.rows {
			results, aerr := s.runKernel(r.Context(), deadline, cfgs, tr.Reader(), nil)
			if aerr != nil {
				return nil, aerr
			}
			row := make([]float64, len(results))
			for j, res := range results {
				v, err := core.MetricOf(plan.metric, res)
				if err != nil {
					return nil, asAPIError(err)
				}
				row[j] = v
			}
			resp.Rows = append(resp.Rows, row)
		}
		return encodeJSON(resp), nil
	}
	body, hit, aerr := s.resultDo(r.Context(), key, compute)
	if aerr != nil {
		if aerr.status != 499 {
			aerr.write(w)
		}
		return
	}
	writeResult(w, "json", body, s.resultOutcome(hit))
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	resp := WorkloadsResponse{
		Scales:  []string{"test", "paper"},
		Configs: core.ConfigNames(),
	}
	for _, n := range workloads.Names() {
		d, err := workloads.Get(n)
		if err != nil {
			continue
		}
		resp.Workloads = append(resp.Workloads, WorkloadInfo{
			Name:        d.Name,
			Description: d.Description,
			Kernel:      d.Kernel,
		})
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.WriteTo(w, s.traces, s.results, s.cfg.ShardID)
}
