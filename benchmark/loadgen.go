package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// senders is the load generator's concurrency in a throughput round: two
// goroutines, each with its own connection, matching the two cores the
// benchmark was sized on. Latency rounds use one.
const senders = 2

// loadClient is the load generator's HTTP client: at most one connection
// per sender.
func loadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		DisableCompression:  true,
	}}
}

// outcome is one timed request. Times are offsets from its round's start.
type outcome struct {
	i          int // request index
	sent, done time.Duration
	ok         bool
}

// round is one round's outcomes, in request order, and its length.
type round struct {
	outcomes []outcome
	dur      time.Duration
}

// runRound sends requests first..first+n-1 from clients goroutines, each
// sending its next request when its last one returns, and returns when
// every one is answered.
func runRound(n, clients, first int, do func(i int) bool, tr *tracer, parent int64) round {
	out := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				o := outcome{i: first + k, sent: time.Since(start)}
				sp := tr.begin("loadgen.request", parent, int64(o.i))
				o.ok = do(o.i)
				sp.end()
				o.done = time.Since(start)
				out[k] = o
			}
		}()
	}
	wg.Wait()
	return round{outcomes: out, dur: time.Since(start)}
}

// latenciesMS are the answered requests' latencies, send to answer.
// Failures are counted by the operation itself.
func (r round) latenciesMS() []float64 {
	v := make([]float64, 0, len(r.outcomes))
	for _, o := range r.outcomes {
		if o.ok {
			v = append(v, ms(o.done-o.sent))
		}
	}
	return v
}

// rate is the round's answered requests per second.
func (r round) rate() float64 {
	n := 0
	for _, o := range r.outcomes {
		if o.ok {
			n++
		}
	}
	return float64(n) / r.dur.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
