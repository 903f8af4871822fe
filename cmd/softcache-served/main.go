// softcache-served runs the softcache simulation service: an HTTP daemon
// that accepts JSON simulation and sweep requests, coalesces concurrent
// requests for the same trace into one decode, and drives each config group
// through the fused kernel (one trace pass for the whole group).
//
// Usage:
//
//	softcache-served                       # listen on 127.0.0.1:8265
//	softcache-served -addr :9000 -workers 8 -queue 128 -cache-mb 512
//	softcache-served -timeout 30s -max-timeout 2m -drain 15s -shard s1
//	softcache-served -result-cache-dir /var/lib/softcache/results  # durable result cache
//	softcache-served -route host1:8265,host2:8265,host3:8265   # router mode
//
// With -route the daemon is a cluster router instead of a shard: it
// consistent-hash shards /v1/simulate and /v1/sweep by trace identity
// across the listed softcache-served replicas, with health-probe-driven
// circuit breakers (-probe-interval), budgeted retry failover, and
// optional request hedging (-hedge-after). Breaker thresholds, attempt
// limits and the retry budget are the cluster package's defaults
// (docs/SERVE.md "Cluster mode"). Shard-only flags (-workers, -queue,
// -cache-mb, -timeout, -max-timeout, -shard, -result-cache-dir) are
// ignored in router mode.
//
// With -result-cache-dir a shard keeps a durable result cache
// (internal/resultcache): rendered simulate/sweep/stream responses are
// stored in an append-only CRC-framed segment log and repeat requests
// are answered from disk (X-Softcache-Result: hit) without a kernel
// run. The directory belongs to one daemon at a time and survives
// restarts; -result-cache-bytes bounds the live entries.
//
// The daemon prints "listening on http://ADDR" once the socket is bound
// (with -addr :0 the line carries the chosen port). SIGINT or SIGTERM
// starts a graceful drain: the listener closes immediately, in-flight
// requests get up to -drain to finish, and the process exits 0 on a clean
// drain or 1 if requests had to be aborted.
//
// Endpoints and request formats are documented in docs/SERVE.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"softcache/internal/cli"
	"softcache/internal/cluster"
	"softcache/internal/resultcache"
	"softcache/internal/serve"
)

const tool = "softcache-served"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the daemon until ctx is canceled, writing to the supplied
// streams, and returns the process exit code. Split from main for testing.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8265", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "requests allowed to wait for a worker before 429")
	cacheMB := fs.Int("cache-mb", 256, "decoded-trace cache budget (MiB)")
	timeout := fs.Duration("timeout", 60*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "largest per-request deadline a client may ask for")
	drain := fs.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
	maxBody := fs.Int("max-body", 32, "largest request body accepted (MiB)")
	maxTraceRecords := fs.Int64("max-trace-records", 0, "record budget for one streamed trace body on /v1/simulate/trace (0 = trace format default)")
	resultDir := fs.String("result-cache-dir", "", "durable result-cache directory; empty disables the result cache (shard mode only)")
	resultBytes := fs.Int64("result-cache-bytes", 256<<20, "result-cache live-byte budget (bytes)")
	shard := fs.String("shard", "", "shard ID label for fleet deployments (X-Softcache-Shard header, /metrics)")
	route := fs.String("route", "", "router mode: comma-separated shard base URLs to consistent-hash across")
	hedgeAfter := fs.Duration("hedge-after", 0, "router: race a second replica after this delay (0 disables hedging)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "router: interval between shard /healthz probes")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("unexpected argument %q", fs.Arg(0)))
	}
	if *queue < 1 || *cacheMB < 1 || *timeout <= 0 || *maxTimeout <= 0 || *drain <= 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-queue, -cache-mb, -timeout, -max-timeout and -drain must be positive"))
	}
	if *maxBody < 1 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-max-body must be positive"))
	}
	if *maxTraceRecords < 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-max-trace-records must not be negative"))
	}
	if *resultBytes < 1 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-result-cache-bytes must be positive"))
	}
	if *hedgeAfter < 0 || *probeInterval <= 0 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("router flags out of range: -hedge-after >= 0; -probe-interval > 0"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return cli.Exit(stderr, tool, err)
	}

	var handler http.Handler
	var closeRouter func()
	if *route != "" {
		shards := strings.Split(*route, ",")
		router, rerr := cluster.New(cluster.Config{
			Shards:        shards,
			ProbeInterval: *probeInterval,
			HedgeAfter:    *hedgeAfter,
			MaxBodyBytes:  int64(*maxBody) << 20,
			Log:           stderr,
		})
		if rerr != nil {
			ln.Close()
			return cli.Exit(stderr, tool, cli.Usage(rerr))
		}
		handler = router
		closeRouter = router.Close
		fmt.Fprintf(stdout, "routing %d shards\n", len(shards))
	} else {
		var results *resultcache.Cache
		if *resultDir != "" {
			var rcErr error
			results, rcErr = resultcache.Open(*resultDir, *resultBytes, 0)
			if rcErr != nil {
				ln.Close()
				return cli.Exit(stderr, tool, rcErr)
			}
			// Closed after the listener drains, below: the server must not
			// serve requests against a closed log.
			defer results.Close()
			st := results.Stats()
			fmt.Fprintf(stdout, "result cache: %s (%d entries, %d bytes)\n", *resultDir, st.Entries, st.Bytes)
		}
		handler = serve.New(serve.Config{
			Workers:         *workers,
			QueueDepth:      *queue,
			CacheBytes:      int64(*cacheMB) << 20,
			DefaultTimeout:  *timeout,
			MaxTimeout:      *maxTimeout,
			MaxBodyBytes:    int64(*maxBody) << 20,
			MaxTraceRecords: *maxTraceRecords,
			ShardID:         *shard,
			ResultCache:     results,
			Log:             stderr,
		})
	}
	srv := &http.Server{Handler: handler}

	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died without a shutdown request.
		if closeRouter != nil {
			closeRouter()
		}
		return cli.Exit(stderr, tool, err)
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "draining (up to %s)\n", *drain)
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := srv.Shutdown(shCtx)
	if closeRouter != nil {
		closeRouter()
	}
	if shutdownErr != nil {
		srv.Close()
		return cli.Exit(stderr, tool, fmt.Errorf("drain incomplete: %w", shutdownErr))
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return cli.Exit(stderr, tool, err)
	}
	fmt.Fprintln(stdout, "drained, exiting")
	return cli.ExitOK
}
