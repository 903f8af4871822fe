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

// Unwrap exposes the connection's writer to http.ResponseController, which
// the streamed endpoint uses to bound its body reads by the deadline.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

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

// admitted is the one request path every computation takes — the
// simulate and sweep misses of serveResult and every streamed upload: it
// claims a worker slot, starts the request's deadline at admission, runs
// work under it, contains a panic as a 500, and maps any other failure
// through outcome, with onErr for the failures that are neither the
// deadline's nor the client's.
func (s *Server) admitted(r *http.Request, timeoutMS int64, onErr func(error) *apiError, work func(ctx context.Context) ([]byte, error)) (body []byte, aerr *apiError) {
	release, aerr := s.admit(r.Context())
	if aerr != nil {
		return nil, aerr
	}
	defer release()

	deadline := time.Now().Add(s.timeoutFor(timeoutMS))
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			s.met.panics.Add(1)
			fmt.Fprintf(s.cfg.Log, "serve: %s panicked: %v\n%s", r.URL.Path, p, debug.Stack())
			body, aerr = nil, &apiError{status: http.StatusInternalServerError, msg: "simulation panicked (see server log)"}
		}
	}()
	var err error
	if body, err = work(ctx); err != nil {
		return nil, s.outcome(r, deadline, err, onErr)
	}
	return body, nil
}

// outcome is the one rule that turns a failed request into its status.
// An error a stage already mapped (admission, a bad din body, the spool
// limit) keeps its status. Otherwise a passed deadline is a 504 — checked
// before the client, because a read deadline on the connection also
// cancels the request context — a request whose context is gone is a
// 499, and anything else is onErr's. A zero deadline means the request
// was never admitted and so has no deadline of its own.
func (s *Server) outcome(r *http.Request, deadline time.Time, err error, onErr func(error) *apiError) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case !deadline.IsZero() && !time.Now().Before(deadline):
		s.met.timeouts.Add(1)
		fmt.Fprintf(s.cfg.Log, "serve: %s: deadline exceeded: %v\n", r.URL.Path, err)
		return &apiError{status: http.StatusGatewayTimeout, msg: "deadline exceeded"}
	case r.Context().Err() != nil:
		return &apiError{status: 499, msg: "client went away"}
	default:
		return onErr(err)
	}
}

// internalError maps a failure of a request whose inputs were all
// validated up front: it can only be the server's fault.
func internalError(err error) *apiError {
	return &apiError{status: http.StatusInternalServerError, msg: err.Error()}
}

// serveResult answers a simulate or sweep request with the result cache
// as the front door: a stored body is served without a worker slot, a
// request identical to one in flight waits for that one's answer without
// a worker slot either, and only the request that computes goes through
// admitted. Without a result cache every request computes.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, key, format string, timeoutMS int64, work func(ctx context.Context) ([]byte, error)) {
	compute := func() ([]byte, error) {
		body, aerr := s.admitted(r, timeoutMS, internalError, work)
		if aerr != nil {
			return nil, aerr
		}
		return body, nil
	}
	var (
		body    []byte
		err     error
		outcome string
	)
	if s.results == nil {
		body, err = compute()
	} else {
		var hit bool
		body, hit, err = s.results.Do(r.Context(), key, compute)
		outcome = resultMiss
		if hit {
			outcome = resultHit
		}
	}
	if err != nil {
		s.outcome(r, time.Time{}, err, internalError).write(w)
		return
	}
	writeResult(w, format, body, outcome)
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
	key := s.resultKey("simulate", plan.traceKey, canonicalConfigs(plan.cfgs), format)
	s.serveResult(w, r, key, format, plan.timeout, func(ctx context.Context) ([]byte, error) {
		tr, err := s.traces.Get(ctx, plan.traceKey, plan.load)
		if err != nil {
			return nil, err
		}
		results, err := core.Run(ctx, core.Job{Configs: plan.cfgs}, tr.Reader())
		if err != nil {
			return nil, err
		}
		var tags trace.TagCounts
		if format == "text" {
			tags = tr.CountTags()
		}
		return renderSimulate(format, tr.Name, uint64(len(tr.Records)), tags, results), nil
	})
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
	// Sweep responses are always JSON.
	key := s.resultKey("sweep", plan.traceKey, canonicalSweep(plan), "json")
	s.serveResult(w, r, key, "json", plan.timeout, func(ctx context.Context) ([]byte, error) {
		tr, err := s.traces.Get(ctx, plan.traceKey, plan.load)
		if err != nil {
			return nil, err
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
			results, err := core.Run(ctx, core.Job{Configs: cfgs}, tr.Reader())
			if err != nil {
				return nil, err
			}
			row := make([]float64, len(results))
			for j, res := range results {
				v, err := core.MetricOf(plan.metric, res)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			resp.Rows = append(resp.Rows, row)
		}
		return encodeJSON(resp), nil
	})
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
