package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// mix is one serve workload: a traffic mix sent to the fleet's router.
type mix struct {
	name   string
	stream bool // POST /v1/simulate/trace with an SCTZ body, not POST /v1/simulate
	pool   int  // > 0: requests are Zipf draws over this many answers computed in set-up
	round  int  // requests per round of the load
}

// mixes are the serve workloads. A round of the never-repeating mixes is
// one block of the schedule, so every round asks for the same work; a
// round of the pool mix is long enough for its Zipf draws to average out.
var mixes = []mix{
	{name: "serve-unique", round: blockSize()},
	{name: "serve-repeat", pool: 128, round: 512},
	{name: "stream-upload", stream: true, round: blockSize()},
}

// maxSamples is how many answers of a never-repeating mix are kept, a
// uniform sample of the run's answers (reservoir sampling), and
// recomputed with the core kernel after the timed window. A fixed number,
// so that what the run holds does not grow with how fast the host is.
const maxSamples = 512

// maxFailureNotes bounds how many failure messages a run prints.
const maxFailureNotes = 5

type sample struct {
	q    request
	body []byte
}

// serveEnv is one set-up of a serve workload: its inputs and its fleet.
type serveEnv struct {
	mix          mix
	sched        *schedule
	traces       map[string]*trace.Trace // test-scale traces, by benchmark
	bodies       map[string][]byte       // stream mix: SCTZ encodings of traces
	fingerprints map[string]string       // stream mix: sha256 of bodies
	fleet        *fleet
	client       *http.Client      // the load generator's
	placement    map[string]string // benchmark -> shard that answered it in set-up
	pool         [][]byte          // pool mix: set-up answer of unique request j
	generate     time.Duration     // workloads.Trace calls

	mu       sync.Mutex
	failed   int            // guarded by mu
	failures []string       // guarded by mu
	samples  []sample       // guarded by mu
	answered int            // guarded by mu; answers the samples are drawn from
	rng      *rand.Rand     // guarded by mu; draws the samples
	tally    map[string]int // guarded by mu; answers per shard
}

// setupServe builds a serve workload's inputs and starts its fleet: it
// generates the traces, encodes the SCTZ bodies, opens the shards' result
// caches, makes every trace resident on its home shard and, for the pool
// mix, computes the pool's answers.
func setupServe(m mix, o options, tr *tracer) (e *serveEnv, d time.Duration, err error) {
	sp := tr.begin("setup", 0, 0)
	e = &serveEnv{
		mix: m, sched: newSchedule(m, o.seed),
		traces: map[string]*trace.Trace{}, bodies: map[string][]byte{}, fingerprints: map[string]string{},
		placement: map[string]string{}, tally: map[string]int{},
		rng: rand.New(rand.NewPCG(o.seed, streamSamples)),
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	for _, name := range benchmarks {
		g := tr.begin("workloads.generate", sp.id, 0)
		t, err := workloads.Trace(name, workloads.ScaleTest, traceSeed)
		e.generate += g.end()
		if err != nil {
			return e, 0, err
		}
		e.traces[name] = t
		if m.stream {
			var buf bytes.Buffer
			if err := trace.WriteSCTZ(&buf, t); err != nil {
				return e, 0, fmt.Errorf("encoding %s: %w", name, err)
			}
			e.bodies[name] = buf.Bytes()
			sum := sha256.Sum256(buf.Bytes())
			e.fingerprints[name] = hex.EncodeToString(sum[:])
		}
	}
	dir, err := os.MkdirTemp(o.out, "fleet-")
	if err != nil {
		return e, 0, err
	}
	if e.fleet, err = startFleet(dir); err != nil {
		os.RemoveAll(dir)
		return e, 0, err
	}
	e.client = loadClient()
	for k, name := range benchmarks {
		q := request{bench: name, group: group{names: [2]string{"soft", "victim"}, cacheKB: 8, latency: reservedLatency + k}}
		r, err := e.send(e.fleet.routerURL, q)
		if err != nil {
			return e, 0, fmt.Errorf("warming %s: %w", name, err)
		}
		e.placement[name] = r.shard
	}
	for j := 0; j < m.pool; j++ {
		r, err := e.send(e.fleet.routerURL, e.sched.unique(j))
		if err != nil {
			return e, 0, fmt.Errorf("computing pool entry %d: %w", j, err)
		}
		e.pool = append(e.pool, r.body)
	}
	return e, sp.end(), nil
}

func (e *serveEnv) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.fleet != nil {
		e.fleet.close()
	}
}

// send posts q to base and requires a 200.
func (e *serveEnv) send(base string, q request) (*response, error) {
	req, err := q.httpRequest(base, e.mix.stream, e.bodies[q.bench])
	if err != nil {
		return nil, err
	}
	return sendOK(e.client, req)
}

// do sends request i through the router and checks the answer; it is
// the load generator's operation.
func (e *serveEnv) do(i int) bool {
	q := e.sched.request(i)
	r, err := e.send(e.fleet.routerURL, q)
	if err == nil {
		err = e.check(i, q, r)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.failed++
		if len(e.failures) < maxFailureNotes {
			e.failures = append(e.failures, fmt.Sprintf("request %d (%s): %v", i, q.bench, err))
		}
		return false
	}
	e.tally[r.shard]++
	if e.mix.pool == 0 {
		e.answered++
		if len(e.samples) < maxSamples {
			e.samples = append(e.samples, sample{q: q, body: r.body})
		} else if k := e.rng.IntN(e.answered); k < maxSamples {
			e.samples[k] = sample{q: q, body: r.body}
		}
	}
	return true
}

// check is what every answer must satisfy while the load runs.
func (e *serveEnv) check(i int, q request, r *response) error {
	want := "miss"
	if e.mix.pool > 0 {
		want = "hit"
	}
	if r.result != want {
		return fmt.Errorf("result cache answered %q, want %q", r.result, want)
	}
	if e.mix.pool > 0 && !bytes.Equal(r.body, e.pool[e.sched.poolIndex(i)]) {
		return fmt.Errorf("body differs from the set-up answer of pool entry %d", e.sched.poolIndex(i))
	}
	if e.mix.stream && r.fingerprint != e.fingerprints[q.bench] {
		return fmt.Errorf("trace fingerprint %q, want sha256 of the upload %q", r.fingerprint, e.fingerprints[q.bench])
	}
	return nil
}

// takeTally returns the answers per shard since the last call.
func (e *serveEnv) takeTally() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tally
	e.tally = map[string]int{}
	return t
}

// minRounds is the fewest rounds a window may give.
const minRounds = 5

// serveSetups is how many set-ups an untraced serve run makes. A set-up
// takes tens of milliseconds, so one scheduling hiccup is a large share of
// it, and the median needs more of them than a figures run's does.
const serveSetups = 15

// load is one measured window: rounds of requests sent by one client,
// for latency, or by senders at once, to load the fleet.
type load struct {
	clients    int
	latency    []float64 // request latencies, ms
	rates      []float64 // rounds' answers per second
	requests   int
	dur        time.Duration
	before     fleetScrape
	after      fleetScrape
	tally      map[string]int
	p50        float64 // median of latency
	throughput float64 // median of rates
}

// measure runs rounds from the given number of clients until the window
// has passed, numbering the requests from first and timing the host-speed
// reference after each round, and returns the window with the next unused
// request number.
func (e *serveEnv) measure(o options, first, clients int, tr *tracer, meter *hostMeter) (*load, int, error) {
	l := &load{clients: clients}
	var err error
	if l.before, err = e.fleet.scrape(); err != nil {
		return nil, 0, err
	}
	e.takeTally()
	start := time.Now()
	for r := int64(0); time.Since(start) < o.duration(); r++ {
		sp := tr.begin("loadgen.round", 0, r)
		p := runRound(e.mix.round, clients, first, e.do, tr, sp.id)
		sp.end()
		first += len(p.outcomes)
		l.requests += len(p.outcomes)
		l.latency = append(l.latency, p.latenciesMS()...)
		l.rates = append(l.rates, p.rate())
		if _, err := meter.measure(); err != nil {
			return nil, 0, err
		}
	}
	l.dur = time.Since(start)
	if l.after, err = e.fleet.scrape(); err != nil {
		return nil, 0, err
	}
	l.tally = e.takeTally()
	if !o.short && len(l.rates) < minRounds {
		return nil, 0, fmt.Errorf("window gave %d rounds, need %d: run longer", len(l.rates), minRounds)
	}
	l.p50, l.throughput = median(l.latency), median(l.rates)
	return l, first, nil
}

func (l *load) lines(label string) []string {
	d := func(series string) float64 { return shardDelta(l.before, l.after, series) }
	shards := make([]string, 0, len(l.tally))
	for s, n := range l.tally {
		shards = append(shards, fmt.Sprintf("%s=%d", s, n))
	}
	sort.Strings(shards)
	tailNote := "too few samples for p99"
	if p99, err := percentile(l.latency, 99); err == nil {
		tailNote = fmt.Sprintf("p99 %.3f ms", p99)
	}
	return []string{
		fmt.Sprintf("%s window, %d client(s): %d rounds, %d requests in %.1f s; latency p50 %.3f ms, %s; throughput %.1f/s (median of the rounds)",
			label, l.clients, len(l.rates), l.requests, l.dur.Seconds(), l.p50, tailNote, l.throughput),
		fmt.Sprintf("%s counters: result cache hits %.0f misses %.0f stores %.0f; trace cache hits %.0f misses %.0f decodes %.0f; rejections %.0f; router retries %.0f; answers by shard %s",
			label, d("softcache_result_cache_hits_total"), d("softcache_result_cache_misses_total"), d("softcache_result_cache_stores_total"),
			d("softcache_trace_cache_hits_total"), d("softcache_trace_cache_misses_total"), d("softcache_trace_decodes_total"),
			d("softcache_queue_rejections_total"), l.after.router["softcache_router_retries_total"]-l.before.router["softcache_router_retries_total"],
			strings.Join(shards, " ")),
	}
}

// layerMetrics fills the per-layer metrics the loaded window measures:
// the fleet's counter deltas, the router's shard split, and the
// generator's request count and throughput.
func (l *load) layerMetrics(rep *report) {
	d := func(series string) float64 { return shardDelta(l.before, l.after, series) }
	hits, misses := d("softcache_result_cache_hits_total"), d("softcache_result_cache_misses_total")
	rep.layers["resultcache.hit_ratio"] = ratio(hits, hits+misses)
	rep.layers["resultcache.stores"] = d("softcache_result_cache_stores_total")
	hits, misses = d("softcache_trace_cache_hits_total"), d("softcache_trace_cache_misses_total")
	rep.layers["serve.trace_cache_hit_ratio"] = ratio(hits, hits+misses)
	rep.layers["serve.rejections"] = d("softcache_queue_rejections_total")
	rep.layers["serve.trace_decodes"] = d("softcache_trace_decodes_total")
	for name, after := range l.after.shards {
		busy := 0.0
		for _, ep := range []string{"simulate", "simulate_trace"} {
			series := `softcache_request_seconds_total{endpoint="` + ep + `"}`
			busy += after[series] - l.before.shards[name][series]
		}
		rep.layers["serve.busy_share_max"] = max(rep.layers["serve.busy_share_max"], busy/l.dur.Seconds())
	}
	rep.layers["cluster.retries"] = l.after.router["softcache_router_retries_total"] - l.before.router["softcache_router_retries_total"]
	total, most := 0, 0
	for _, n := range l.tally {
		total += n
		most = max(most, n)
	}
	rep.layers["cluster.home_share_max"] = ratio(float64(most), float64(total))
	rep.layers["loadgen.sent"] = float64(l.requests)
	rep.layers["loadgen.loaded_rps"] = l.throughput
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (e *serveEnv) placementLine() string {
	var parts []string
	for _, name := range benchmarks {
		parts = append(parts, name+"="+e.placement[name])
	}
	return strings.Join(parts, " ")
}

// runServe runs one serve workload: set-up, the timed window, and in a
// traced run a second, traced window, a loaded window, the unloaded
// replay and the layer timings; then the correctness checks.
//
// The timed window sends one request at a time. Two clients and the
// fleet they keep busy would load both cores of a 2-core host, and
// measure its other tenants as much as the fleet; the loaded window, in
// traced runs only, shows how the fleet shares out concurrent work.
func runServe(m mix, o options, tr *tracer, meter *hostMeter) (*report, error) {
	rep := newReport()
	var env *serveEnv
	var setups, scaled []float64
	for r := 0; r < o.setupReps(serveSetups); r++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		e, d, err := setupServe(m, o, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		env = e
		f, err := meter.measure()
		if err != nil {
			env.close()
			return nil, err
		}
		setups, scaled = append(setups, d.Seconds()), append(scaled, d.Seconds()*f)
	}
	defer env.close()
	rep.e2e["setup_s"] = median(scaled)
	rep.layers["workloads.generate_ms"] = ms(env.generate)
	rep.notef("set-up: median %.4f s of %d, %.4f s at reference host speed", median(setups), len(setups), median(scaled))
	rep.notef("placement: %s", env.placementLine())

	// One untimed round pair warms the connections, the kernel's pools
	// and the heap before the window starts.
	next := 0
	for _, clients := range []int{1, senders} {
		next += len(runRound(m.round, clients, next, env.do, nil, 0).outcomes)
	}
	rep.attempted += next
	base, next, err := env.measure(o, next, 1, nil, meter)
	if err != nil {
		return nil, err
	}
	rep.lines = append(rep.lines, base.lines("untraced")...)
	rep.attempted += base.requests
	f, err := meter.factor()
	if err != nil {
		return nil, err
	}
	rep.e2e["latency_p50_ms"] = base.p50 * f
	rep.notef("untraced latency p50 %.4f ms at reference host speed (scaled by %.4f)", base.p50*f, f)

	if o.traced {
		traced, next, err := env.measure(o, next, 1, tr, meter)
		if err != nil {
			return nil, err
		}
		loaded, _, err := env.measure(o, next, senders, nil, meter)
		if err != nil {
			return nil, err
		}
		rep.lines = append(rep.lines, traced.lines("traced")...)
		rep.lines = append(rep.lines, loaded.lines("loaded")...)
		rep.attempted += traced.requests + loaded.requests
		loaded.layerMetrics(rep)
		rep.layers["tracing.overhead_share"] = (traced.p50 - base.p50) / base.p50
		if err := env.replay(o, tr, rep, loaded); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		traces := make([]*trace.Trace, 0, len(env.traces))
		for _, name := range benchmarks {
			traces = append(traces, env.traces[name])
		}
		if err := measureLayers(traces, o.out, tr, rep); err != nil {
			return nil, err
		}
	}

	env.mu.Lock()
	rep.failed += env.failed
	for _, f := range env.failures {
		rep.notef("FAIL: %s", f)
	}
	samples := env.samples
	env.mu.Unlock()
	for _, s := range samples {
		if err := verifyAnswer(env.traces[s.q.bench], s.q, s.body); err != nil {
			rep.fail("recomputed %s %v: %v", s.q.bench, s.q.group, err)
		}
	}
	for j, body := range env.pool {
		q := env.sched.unique(j)
		if err := verifyAnswer(env.traces[q.bench], q, body); err != nil {
			rep.fail("pool entry %d (%s): %v", j, q.bench, err)
		}
	}
	checked := "every answer 200 with the expected result-cache outcome"
	if m.pool > 0 {
		checked += " and its set-up body"
	}
	if m.stream {
		checked += " and the upload's sha256 as fingerprint"
	}
	rep.notef("checked: %s; %d answers recomputed with core.SimulateManyTrace", checked, len(samples)+len(env.pool))
	return rep, nil
}
