// Package chaos is a deterministic fault-injection proxy for the
// cluster tests: it sits between the router and one shard and corrupts
// a seeded, reproducible fraction of the calls passing through. It is
// the wire-level counterpart of internal/harness's test corpus — where
// the corpus mangles serialised traces (truncations, flipped bytes,
// absurd counts), the proxy mangles the transport the same ways:
//
//   - drop: the connection is severed before any response (the wire
//     analogue of the corpus's truncated-empty);
//   - stall: the response is delayed by a configured duration, the
//     fault hedging exists for;
//   - error-burst: one or more consecutive calls answer 503 without
//     reaching the shard (a crashing or overloaded replica);
//   - partial-write: the shard's real response is relayed with a full
//     Content-Length but only half the body before the connection is
//     severed (truncated-mid-stream, on the wire).
//
// Every decision is a pure function of (seed, call index), so a failing
// run replays exactly; the proxy keeps a log of injected events that
// tests cross-check against the router's /metrics accounting.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Kind is one fault flavour.
type Kind uint8

const (
	KindNone    Kind = iota // call passes through untouched
	KindDrop                // sever before any response bytes
	KindStall               // delay, then pass through
	KindError               // 503 without contacting the shard
	KindPartial             // real response truncated mid-body
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDrop:
		return "drop"
	case KindStall:
		return "stall"
	case KindError:
		return "error-burst"
	case KindPartial:
		return "partial-write"
	}
	return "unknown"
}

// Plan decides, per call index, which fault (if any) to inject. The
// zero Plan injects nothing.
type Plan struct {
	// Seed makes the schedule reproducible; two proxies with the same
	// seed and fraction fault the same call indices.
	Seed uint64
	// Fraction of calls faulted, in [0, 1].
	Fraction float64
	// Kinds is the fault vocabulary to draw from (default: drop, stall,
	// error-burst, partial-write).
	Kinds []Kind
	// Burst is how many consecutive calls one KindError fault poisons
	// (default 1).
	Burst int
}

// splitmix64 is the standard 64-bit mix, plenty for a fault schedule.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// At returns the fault for call index i — a pure function, so tests can
// predict the whole schedule without running it.
func (p Plan) At(i uint64) Kind {
	if p.Fraction <= 0 {
		return KindNone
	}
	h := splitmix64(p.Seed ^ splitmix64(i))
	if float64(h>>11)/(1<<53) >= p.Fraction {
		return KindNone
	}
	kinds := p.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindDrop, KindStall, KindError, KindPartial}
	}
	return kinds[splitmix64(h)%uint64(len(kinds))]
}

// Event is one injected fault, recorded for test cross-checks.
type Event struct {
	Index uint64
	Kind  Kind
}

// Proxy is the fault-injecting reverse proxy for one shard. Mount it on
// a listener and point the router at the listener instead of the shard.
type Proxy struct {
	target string
	plan   Plan
	stall  time.Duration
	client *http.Client

	mu        sync.Mutex
	calls     uint64  // guarded by mu; call index counter
	burstLeft int     // guarded by mu; remaining calls poisoned by an error burst
	events    []Event // guarded by mu
}

// New builds a proxy forwarding to target (a base URL such as the
// shard's http://host:port). stall is the delay a KindStall fault
// injects (default 20ms).
func New(target string, plan Plan, stall time.Duration) *Proxy {
	if stall <= 0 {
		stall = 20 * time.Millisecond
	}
	if plan.Burst < 1 {
		plan.Burst = 1
	}
	return &Proxy{
		target: target,
		plan:   plan,
		stall:  stall,
		client: &http.Client{},
	}
}

// decide consumes one call index and returns the fault to inject.
func (p *Proxy) decide() Kind {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.calls
	p.calls++
	if p.burstLeft > 0 {
		p.burstLeft--
		p.events = append(p.events, Event{Index: i, Kind: KindError})
		return KindError
	}
	k := p.plan.At(i)
	if k == KindError {
		p.burstLeft = p.plan.Burst - 1
	}
	if k != KindNone {
		p.events = append(p.events, Event{Index: i, Kind: k})
	}
	return k
}

// Calls reports how many requests reached the proxy.
func (p *Proxy) Calls() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// Events snapshots the injected-fault log in call order.
func (p *Proxy) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// CountKind tallies one fault kind in the event log.
func (p *Proxy) CountKind(k Kind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// abort severs the client connection without a response — net/http
// treats ErrAbortHandler as a deliberate mid-handler abort and closes
// the connection, which the router sees as a transport error.
func abort() {
	panic(http.ErrAbortHandler)
}

// ServeHTTP applies the scheduled fault, forwarding to the shard when
// the call survives.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind := p.decide()
	switch kind {
	case KindDrop:
		abort()
	case KindError:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"chaos: injected 503"}`+"\n")
		return
	case KindStall:
		select {
		case <-time.After(p.stall):
		case <-r.Context().Done():
			return
		}
	}

	body, err := io.ReadAll(r.Body)
	if err != nil {
		abort()
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		abort()
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		// The shard itself is down; to the router that is
		// indistinguishable from a drop, which is the honest signal.
		abort()
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		abort()
	}

	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	if kind == KindPartial && len(data) > 1 {
		// Promise the full length, deliver half, sever: the client's
		// read ends in io.ErrUnexpectedEOF, never a short success. The
		// flush matters — without it the abort discards the buffered
		// half and the client sees a pre-header EOF instead of a
		// mid-body truncation.
		h.Set("Content-Length", strconv.Itoa(len(data)))
		w.WriteHeader(resp.StatusCode)
		w.Write(data[:len(data)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		abort()
	}
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(resp.StatusCode)
	w.Write(data)
}

// String describes the proxy for test logs.
func (p *Proxy) String() string {
	return fmt.Sprintf("chaos.Proxy(target=%s seed=%d fraction=%g)", p.target, p.plan.Seed, p.plan.Fraction)
}
