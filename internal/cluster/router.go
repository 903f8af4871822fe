package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softcache/internal/prom"
	"softcache/internal/serve"
)

// DegradedHeader marks a response served off the key's home shard: the
// trace is (or will become) resident on a different replica than the
// ring assigns, so the client paid — or a later request may pay — a cold
// decode. Routing is degraded, the answer itself is byte-identical.
const DegradedHeader = "X-Softcache-Degraded"

// maxTrackedKeys bounds the router's routing-key residency map; beyond
// it new keys go untracked (the gauge undercounts rather than the map
// growing without bound).
const maxTrackedKeys = 4096

// Fixed router parameters: no deployment has needed another value.
const (
	vnodes           = 64          // virtual nodes per shard on the hash ring
	probeTimeout     = time.Second // bound on one /healthz probe
	maxResponseBytes = 64 << 20    // cap on one buffered shard response
)

// Config sizes the router. The zero value is not usable: Shards is
// required. Every other field has a default chosen for a small fleet on
// one rack.
type Config struct {
	// Shards is the fleet: base URLs of softcache-served replicas
	// ("http://host:port"; a bare host:port gets http://). Required.
	Shards []string
	// ProbeInterval spaces active /healthz probes (default 2s; negative
	// disables probing — request outcomes alone drive the breakers).
	ProbeInterval time.Duration
	// Rise and Fall are the breaker thresholds: consecutive successes to
	// close a half-open circuit (default 2) and consecutive failures to
	// trip a closed one (default 3). Cooldown holds a tripped circuit
	// open before trial traffic (default 5s).
	Rise, Fall int
	Cooldown   time.Duration
	// MaxAttempts bounds the attempts for one request, first try, hedge
	// and retries included (default 2x the fleet size: every failover
	// path gets a chance, wrapped once).
	MaxAttempts int
	// RetryBackoff is the base sleep before retry n, scaled linearly
	// (default 25ms; negative disables backoff).
	RetryBackoff time.Duration
	// RetryBudgetRatio tokens are deposited per incoming request, up to
	// RetryBudgetBurst; each retry or hedge withdraws one (defaults 0.1
	// and 10 — a sick fleet gets ~10% amplification, not N x).
	RetryBudgetRatio float64
	RetryBudgetBurst float64
	// HedgeAfter races a second replica when the first has not answered
	// within this duration, cancelling the loser (0 disables).
	HedgeAfter time.Duration
	// MaxBodyBytes caps one proxied request body (default
	// serve.MaxBodyBytes). Shard responses are buffered whole, up to
	// 64 MiB, so a shard dying mid-write is a retryable failure, never a
	// truncated client response.
	MaxBodyBytes int64
	// Transport overrides the outbound http.RoundTripper (tests inject
	// fault transports); nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Log receives routing failures; nil discards them.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 2 * len(c.Shards)
		if c.MaxAttempts < 2 {
			c.MaxAttempts = 2
		}
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = serve.MaxBodyBytes
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// shardState is the router's view of one replica.
type shardState struct {
	url      string
	br       *breaker
	probeOK  atomic.Bool   // last active probe outcome
	failures *prom.Counter // failed attempts against this shard
}

// Router consistent-hash shards simulate/sweep requests across a fleet
// of softcache-served replicas, with health-gated failover, bounded
// retries, optional hedging, and its own /metrics. Create with New,
// mount on an http.Server, and Close when done (stops the prober).
type Router struct {
	cfg    Config
	ring   *ring
	states map[string]*shardState // immutable after New
	met    *routerMetrics
	budget *retryBudget
	client *http.Client
	mux    *http.ServeMux

	stopProbe context.CancelFunc
	probeDone chan struct{}

	mu   sync.Mutex
	keys map[string]string // guarded by mu; routing key -> home shard
}

// New builds and starts a Router (the health prober begins immediately
// unless ProbeInterval is negative).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	rt := &Router{
		cfg:    cfg,
		states: make(map[string]*shardState, len(cfg.Shards)),
		budget: newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		client: &http.Client{Transport: transport},
		mux:    http.NewServeMux(),
		keys:   make(map[string]string),
	}
	urls := make([]string, 0, len(cfg.Shards))
	for _, s := range cfg.Shards {
		u, err := normalizeShard(s)
		if err != nil {
			return nil, err
		}
		if _, dup := rt.states[u]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard %s", u)
		}
		st := &shardState{url: u, br: newBreaker(cfg.Rise, cfg.Fall, cfg.Cooldown)}
		// Optimistic until the first probe or request says otherwise.
		st.probeOK.Store(true)
		rt.states[u] = st
		urls = append(urls, u)
	}
	rt.ring = newRing(urls, vnodes)
	rt.met = newRouterMetrics(rt)

	rt.mux.HandleFunc("POST /v1/simulate", rt.handleProxy)
	rt.mux.HandleFunc("POST /v1/simulate/trace", rt.handleProxyStream)
	rt.mux.HandleFunc("POST /v1/sweep", rt.handleProxy)
	rt.mux.HandleFunc("GET /v1/workloads", rt.handleProxy)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.Handle("GET /metrics", &rt.met.reg)

	rt.probeDone = make(chan struct{})
	pctx, cancel := context.WithCancel(context.Background())
	rt.stopProbe = cancel
	if cfg.ProbeInterval > 0 {
		go rt.probeLoop(pctx)
	} else {
		close(rt.probeDone)
	}
	return rt, nil
}

// normalizeShard validates one shard URL, defaulting the scheme to http
// and trimming a trailing slash.
func normalizeShard(s string) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", fmt.Errorf("cluster: empty shard address")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("cluster: shard %q: %w", s, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: shard %q: unsupported scheme %q", s, u.Scheme)
	}
	if u.Hostname() == "" {
		return "", fmt.Errorf("cluster: shard %q has no host", s)
	}
	return u.Scheme + "://" + u.Host, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health prober and waits for it to exit. In-flight
// proxied requests are unaffected (their contexts belong to the
// clients).
func (rt *Router) Close() {
	rt.stopProbe()
	<-rt.probeDone
}

// writeError mirrors the shards' JSON error body shape.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// routingKey derives the consistent-hash key for a request: the trace
// identity (the same key the shards' trace caches use, i.e. what
// trace.Fingerprint pins) for simulate/sweep bodies, a content hash for
// bodies whose selector does not resolve (the shard still owns the
// authoritative 400), and the path for body-less GETs.
func routingKey(method string, path string, body []byte) string {
	if method == http.MethodGet || len(body) == 0 {
		return "path:" + path
	}
	if key, err := serve.RoutingKey(body); err == nil {
		return key
	}
	sum := sha256.Sum256(body)
	return fmt.Sprintf("body:%x", sum[:12])
}

// recordKey notes which shard owns a routing key (for the residency
// gauge), bounded by maxTrackedKeys.
func (rt *Router) recordKey(key, owner string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, known := rt.keys[key]; !known && len(rt.keys) >= maxTrackedKeys {
		return
	}
	rt.keys[key] = owner
}

// shardKeys counts the tracked routing keys the shard owns.
func (rt *Router) shardKeys(shard string) int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var n int64
	for _, owner := range rt.keys {
		if owner == shard {
			n++
		}
	}
	return n
}

// outcome is one buffered attempt's result: buffering the response
// whole means a backend dying mid-body is an attempt failure the router
// can retry, never a truncated client response.
type outcome struct {
	shard  string
	status int
	header http.Header
	body   []byte
	err    error
	hedge  bool // the attempt was the hedge of a first attempt
}

// usable reports whether an outcome is an answer to relay. Transport
// errors (connection refused/reset, truncated body) and 5xx fail over to
// the next replica; every 2xx-4xx — including a shard's 429
// backpressure, which the router must relay, not amplify — is relayed.
func (o outcome) usable() bool { return o.err == nil && o.status < 500 }

// send builds one shard request and sends it: every buffered attempt,
// streamed pass-through and health probe goes through here. contentType
// is the client's, if any; length is the body's size (-1 when unknown,
// as for a chunked upload).
func (rt *Router) send(ctx context.Context, shard, method, uri, contentType string, body io.Reader, length int64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, shard+uri, body)
	if err != nil {
		return nil, err
	}
	req.ContentLength = length
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return rt.client.Do(req)
}

// attempt sends the request to one shard and buffers the response.
func (rt *Router) attempt(ctx context.Context, shard, method, uri, contentType string, body []byte) outcome {
	o := outcome{shard: shard}
	resp, err := rt.send(ctx, shard, method, uri, contentType, bytes.NewReader(body), int64(len(body)))
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status, o.header = resp.StatusCode, resp.Header
	o.body, o.err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if o.err == nil && len(o.body) > maxResponseBytes {
		o.err = fmt.Errorf("cluster: shard response exceeds %d bytes", maxResponseBytes)
	}
	return o
}

// observe feeds one outcome — an attempt's or a probe's — into the
// shard's breaker and failure counter. It ignores outcomes that arrive
// once ctx, the client's request or the prober's, is done: a client
// hanging up or the router shutting down says nothing about the shard.
func (rt *Router) observe(ctx context.Context, shard string, ok bool) {
	if ctx.Err() != nil {
		return
	}
	st := rt.states[shard]
	if ok {
		st.br.Success()
	} else {
		st.br.Failure()
		st.failures.Add(1)
	}
}

// withdraw takes a retry-budget token for a retry or a hedge, counting
// a denial.
func (rt *Router) withdraw() bool {
	if rt.budget.Withdraw() {
		return true
	}
	rt.met.budgetExhausted.Add(1)
	return false
}

// forward runs every attempt of one buffered request and returns the
// first usable outcome, or the last failure when none was usable or the
// client went away. Attempt k goes to seq[k mod len(seq)]: with
// MaxAttempts above the fleet size (the default is 2x), a request that
// failed once on every replica gets a second pass — transient faults
// rarely strike the same shard twice. After the first attempt come two
// kinds, both counted toward MaxAttempts and both drawing on the retry
// budget:
//
//   - a hedge, launched once, when the first attempt has not answered
//     within HedgeAfter; the first usable response of the two wins;
//   - a retry, launched only when no attempt is in flight and the last
//     one failed, after its backoff.
//
// An attempt runs on its own goroutine only while a hedge can race it.
// Returning cancels any attempt still in flight; its goroutine's send
// lands in the buffered channel, so nothing leaks.
func (rt *Router) forward(ctx context.Context, seq []string, method, uri, contentType string, body []byte) outcome {
	actx := ctx
	var results chan outcome
	var hedgeAfter <-chan time.Time // nil once no hedge can launch
	if rt.cfg.HedgeAfter > 0 && len(seq) > 1 && rt.cfg.MaxAttempts > 1 {
		var cancel context.CancelFunc
		actx, cancel = context.WithCancel(ctx)
		defer cancel()
		results = make(chan outcome, 2) // the first attempt and its hedge
		timer := time.NewTimer(rt.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeAfter = timer.C
	}

	var last outcome
	launched, inflight, hedged := 0, 0, false
	for {
		hedge := false
		if inflight > 0 {
			select {
			case o := <-results:
				inflight--
				hedgeAfter = nil // the first attempt answered, or its hedge is out
				rt.observe(ctx, o.shard, o.usable())
				if !o.usable() {
					last = o
					continue
				}
				if hedged {
					if o.hedge {
						rt.met.hedgeWins.Add(1)
					} else {
						rt.met.hedgeLosses.Add(1)
					}
				}
				return o
			case <-hedgeAfter:
				hedgeAfter = nil
				if !rt.withdraw() {
					continue
				}
				rt.met.hedges.Add(1)
				hedge, hedged = true, true
			}
		} else if launched > 0 {
			// A retry: the last attempt failed and none is in flight.
			if launched >= rt.cfg.MaxAttempts || ctx.Err() != nil || !rt.withdraw() {
				return last
			}
			rt.met.retries.Add(1)
			if !rt.backoff(ctx, launched) {
				return last
			}
		}

		shard := seq[launched%len(seq)]
		launched++
		if hedge || hedgeAfter != nil {
			// The hedge, or a first attempt a hedge may yet race: run aside.
			inflight++
			go func() {
				o := rt.attempt(actx, shard, method, uri, contentType, body)
				o.hedge = hedge
				results <- o
			}()
			continue
		}
		o := rt.attempt(actx, shard, method, uri, contentType, body)
		rt.observe(ctx, shard, o.usable())
		if o.usable() {
			return o
		}
		last = o
	}
}

// backoff sleeps before retry n (1-based), scaled linearly off the base,
// honouring ctx. Reports false when the client went away.
func (rt *Router) backoff(ctx context.Context, n int) bool {
	if rt.cfg.RetryBackoff <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(time.Duration(n) * rt.cfg.RetryBackoff)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// route is the routing preamble both proxy paths share: it counts the
// request, funds the retry budget, notes key's home shard (owner) for the
// residency gauge, and returns the shards to try in preference order —
// breaker-allowed shards first (ring order), then, as a last resort when
// everything looks down, the tripped ones anyway: trying a probably-dead
// shard beats refusing outright, and the retry budget bounds the damage.
// The sequence is never empty: New rejects an empty fleet, and the ring
// lists every shard for every key.
func (rt *Router) route(key string) (seq []string, owner string) {
	rt.met.requests.Add(1)
	rt.budget.Deposit()
	order := rt.ring.Order(key)
	owner = order[0]
	rt.recordKey(key, owner)
	allowed := make([]string, 0, len(order))
	denied := make([]string, 0, len(order))
	for _, s := range order {
		if rt.states[s].br.Allow() {
			allowed = append(allowed, s)
		} else {
			denied = append(denied, s)
		}
	}
	return append(allowed, denied...), owner
}

// handleProxy is the routed path: derive the key, take the ring's
// breaker-gated preference order, forward the request along it, and
// relay the first usable response whole.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method != http.MethodGet {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
			} else {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
			}
			return
		}
	}

	key := routingKey(r.Method, r.URL.Path, body)
	seq, owner := rt.route(key)
	o := rt.forward(r.Context(), seq, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
	if o.usable() {
		w.Header().Set("Content-Length", strconv.Itoa(len(o.body)))
		rt.relay(w, o.shard, owner, o.status, o.header, bytes.NewReader(o.body))
		return
	}
	if r.Context().Err() != nil {
		return // client went away; nobody is left to answer
	}

	rt.met.errors.Add(1)
	msg := "all shard attempts failed"
	if o.err != nil {
		msg = fmt.Sprintf("%s; last error from %s: %v", msg, o.shard, o.err)
	} else {
		msg = fmt.Sprintf("%s; last status from %s: %d", msg, o.shard, o.status)
	}
	fmt.Fprintf(rt.cfg.Log, "cluster: %s %s key=%s: %s\n", r.Method, r.URL.Path, key, msg)
	writeError(w, http.StatusBadGateway, msg)
}

// handleProxyStream routes one streamed trace-simulate request
// (POST /v1/simulate/trace). The body can be larger than any buffer the
// router is willing to hold, so forward's retries and hedges do not
// apply: the router reads just enough of the body
// to fingerprint it (serve.StreamRoutingKey over a bounded prefix),
// takes the first shard of the breaker-ordered sequence, and pipes
// prefix+rest through to it in one unrepeatable attempt. A mid-stream
// shard death is the client's error to retry — the router cannot replay
// bytes it never stored.
func (rt *Router) handleProxyStream(w http.ResponseWriter, r *http.Request) {
	prefix := make([]byte, serve.StreamKeyPrefix)
	n, err := io.ReadFull(r.Body, prefix)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	prefix = prefix[:n]

	key := serve.StreamRoutingKey(prefix)
	seq, owner := rt.route(key)
	rt.met.streamed.Add(1)
	shard := seq[0]

	// The prefix was consumed from r.Body, so the stitched body's length
	// is exactly the client's Content-Length (or unknown for chunked
	// uploads, which the shard accepts just as well).
	body := io.MultiReader(bytes.NewReader(prefix), r.Body)
	resp, err := rt.send(r.Context(), shard, http.MethodPost, r.URL.RequestURI(), r.Header.Get("Content-Type"), body, r.ContentLength)
	if err != nil {
		rt.observe(r.Context(), shard, false)
		rt.met.errors.Add(1)
		fmt.Fprintf(rt.cfg.Log, "cluster: %s %s key=%s: stream attempt to %s: %v\n",
			r.Method, r.URL.Path, key, shard, err)
		writeError(w, http.StatusBadGateway, fmt.Sprintf("stream attempt to %s failed: %v", shard, err))
		return
	}
	defer resp.Body.Close()
	rt.observe(r.Context(), shard, resp.StatusCode < 500)
	// The response streams too: a shard dying mid-reply truncates the
	// client's body, which is the honest outcome for an unrepeatable
	// request.
	rt.relay(w, shard, owner, resp.StatusCode, resp.Header, resp.Body)
}

// relayHeaders are the shard response headers the router forwards to the
// client: content metadata, backpressure hints, and the cache-identity
// pair (which shard answered, whether its result cache hit, and — for
// streams — the upload's content fingerprint) that makes fleet-level
// cache behaviour observable end to end.
var relayHeaders = []string{
	"Content-Type", "Retry-After", "X-Softcache-Shard",
	serve.ResultHeader, serve.TraceFingerprintHeader,
}

// countResult tallies relayed result-cache outcomes so the router's
// /metrics shows fleet-level hit traffic without scraping every shard.
func (rt *Router) countResult(outcome string) {
	switch outcome {
	case "hit":
		rt.met.resultHits.Add(1)
	case "miss":
		rt.met.resultMisses.Add(1)
	}
}

// relay writes one shard response to the client: the relayed headers,
// the result-cache tally, a degraded mark when shard is not the key's
// home shard, then status and body.
func (rt *Router) relay(w http.ResponseWriter, shard, owner string, status int, header http.Header, body io.Reader) {
	h := w.Header()
	for _, k := range relayHeaders {
		if v := header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	rt.countResult(header.Get(serve.ResultHeader))
	if shard != owner {
		h.Set(DegradedHeader, "rerouted")
		rt.met.rerouted.Add(1)
	}
	w.WriteHeader(status)
	io.Copy(w, body)
}

// handleHealthz reports the router live when at least one shard's
// breaker admits traffic.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, st := range rt.states {
		if st.br.Allow() {
			io.WriteString(w, "ok\n")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, "no live shards\n")
}

// probeLoop drives the active health checks: one immediate round, then
// one per ProbeInterval until Close.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	rt.probeAll(ctx)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.probeAll(ctx)
		}
	}
}

// probeAll probes every shard concurrently and feeds the breakers.
func (rt *Router) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, st := range rt.states {
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			ok := rt.probe(pctx, st.url)
			st.probeOK.Store(ok)
			rt.observe(ctx, st.url, ok)
		}(st)
	}
	wg.Wait()
}

// probe is one active /healthz check.
func (rt *Router) probe(ctx context.Context, shard string) bool {
	resp, err := rt.send(ctx, shard, http.MethodGet, "/healthz", "", nil, 0)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}
