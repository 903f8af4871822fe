package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"softcache/internal/cluster"
	"softcache/internal/resultcache"
	"softcache/internal/serve"
)

// shardNames are the fleet's shards. The router reaches them as
// http://<name>, so ring placement hashes these fixed names, not the
// ephemeral ports the shards listen on.
var shardNames = []string{"shard-a", "shard-b"}

// resultCacheBytes is each shard's result-cache budget. It holds the
// repeat pool many times over but fills within the first second of a
// never-repeating mix, so the window measures a full cache that evicts
// as a long-running shard's does. At softcache-served's default of
// 256 MiB the cache would grow through the whole window instead, and
// peak memory would follow how many requests the host's speed allowed.
const resultCacheBytes = 4 << 20

// shard is one serve.Server with its own durable result cache.
type shard struct {
	name  string
	srv   *serve.Server
	cache *resultcache.Cache
	http  *http.Server
	done  chan struct{} // closed when the listener's Serve returns
}

// fleet is the system under test for the serve workloads: a cluster.Router
// with default settings in front of two single-worker shards, all in this
// process and all on loopback.
type fleet struct {
	dir       string
	shards    map[string]*shard
	router    *cluster.Router
	routerSrv *http.Server
	routerEnd chan struct{}
	routerURL string
	// transport dials http://shard-a and http://shard-b; the router and
	// the benchmark's direct-to-shard calls share it.
	transport *http.Transport
}

// startFleet starts the shards and the router, keeping each shard's
// result cache in its own directory under dir.
func startFleet(dir string) (f *fleet, err error) {
	f = &fleet{dir: dir, shards: map[string]*shard{}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	ports := map[string]string{}
	for _, name := range shardNames {
		rc, err := resultcache.Open(filepath.Join(dir, name), resultCacheBytes, 0)
		if err != nil {
			return f, fmt.Errorf("opening %s result cache: %w", name, err)
		}
		s := &shard{name: name, cache: rc, srv: serve.New(serve.Config{Workers: 1, ShardID: name, ResultCache: rc})}
		f.shards[name] = s
		addr, err := listen(s.srv, &s.http, &s.done)
		if err != nil {
			return f, err
		}
		ports[name+":80"] = addr
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := ports[addr]; ok {
			addr = a
		}
		return d.DialContext(ctx, network, addr)
	}
	f.transport = tr
	urls := make([]string, len(shardNames))
	for i, name := range shardNames {
		urls[i] = "http://" + name
	}
	if f.router, err = cluster.New(cluster.Config{Shards: urls, Transport: tr}); err != nil {
		return f, err
	}
	addr, err := listen(f.router, &f.routerSrv, &f.routerEnd)
	if err != nil {
		return f, err
	}
	f.routerURL = "http://" + addr
	return f, nil
}

// listen serves h on an ephemeral loopback port and returns the address.
func listen(h http.Handler, srv **http.Server, done *chan struct{}) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	*srv = &http.Server{Handler: h}
	*done = make(chan struct{})
	go func(s *http.Server, done chan struct{}) {
		defer close(done)
		s.Serve(ln)
	}(*srv, *done)
	return ln.Addr().String(), nil
}

// close stops the router, then the shards, closes the result caches and
// removes their directories. It runs after the load, with nothing in
// flight, and waits for every server goroutine.
func (f *fleet) close() {
	if f.routerSrv != nil {
		f.routerSrv.Close()
		<-f.routerEnd
	}
	if f.router != nil {
		f.router.Close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, s := range f.shards {
		if s.http != nil {
			s.http.Close()
			<-s.done
		}
		s.cache.Close()
	}
	os.RemoveAll(f.dir)
}

// counters is one /metrics scrape: series (name plus labels) to value.
type counters map[string]float64

// scrape reads a Prometheus text page.
func scrape(c *http.Client, url string) (counters, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("GET %s: bad line %q", url, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET %s: bad line %q", url, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// fleetScrape is a scrape of every shard and the router.
type fleetScrape struct {
	shards map[string]counters
	router counters
}

func (f *fleet) scrape() (fleetScrape, error) {
	c := &http.Client{Transport: f.transport}
	fs := fleetScrape{shards: map[string]counters{}}
	for _, name := range shardNames {
		m, err := scrape(c, "http://"+name+"/metrics")
		if err != nil {
			return fs, err
		}
		fs.shards[name] = m
	}
	m, err := scrape(c, f.routerURL+"/metrics")
	fs.router = m
	return fs, err
}

// shardDelta sums a series' growth across shards between two scrapes.
func shardDelta(before, after fleetScrape, series string) float64 {
	total := 0.0
	for name, m := range after.shards {
		total += m[series] - before.shards[name][series]
	}
	return total
}

// response is one answered request.
type response struct {
	status      int
	shard       string // X-Softcache-Shard
	result      string // X-Softcache-Result
	fingerprint string // X-Softcache-Trace-Fingerprint
	body        []byte
}

// send performs req and reads the whole response.
func send(c *http.Client, req *http.Request) (*response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &response{
		status:      resp.StatusCode,
		shard:       resp.Header.Get("X-Softcache-Shard"),
		result:      resp.Header.Get(serve.ResultHeader),
		fingerprint: resp.Header.Get(serve.TraceFingerprintHeader),
		body:        body,
	}, nil
}

// sendOK is send that also requires a 200.
func sendOK(c *http.Client, req *http.Request) (*response, error) {
	r, err := send(c, req)
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, r.status, bytes.TrimSpace(r.body))
	}
	return r, err
}

// healthz is one GET /healthz against base: a single loopback hop to a
// handler that does no work.
func healthz(c *http.Client, base string) error {
	req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	_, err = sendOK(c, req)
	return err
}
