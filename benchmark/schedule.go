package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"softcache/internal/core"
	"softcache/internal/serve"
	"softcache/internal/workloads"
)

// traceSeed is the trace seed of every serve request. Pinning it pins
// the routing keys, and with them which shard holds which trace, so the
// shards' load split is the same in every run; the run seed drives
// everything else.
const traceSeed = 1

// Independent random streams drawn from the run seed.
const (
	streamBlocks  = 1 << 60
	streamZipf    = 2 << 60
	streamSamples = 3 << 60
)

// Requests come in blocks. A block asks, for each of the 9 benchmarks,
// for each of the 14 named designs once as a group's first design, paired
// with a second design by a seeded derangement, so each design is also
// second once. Every block therefore asks for the same work, give or take
// the seeded cache sizes, and a round of the load, one block, is a
// like-for-like sample: seeds differ in order, partners, cache sizes and
// formats, not in how much a round costs. Block b runs at memory latency
// minLatency+b, so no (benchmark, config group) repeats within a run.
// Latencies at or above reservedLatency never occur in a schedule (a run
// would need half a million blocks); set-up and the traced replay use
// them for groups that must not collide with a scheduled one.
var (
	benchmarks   = workloads.Benchmarks()
	configNames  = core.ConfigNames()
	groupCacheKB = []int{4, 8, 16, 32}
)

const (
	minLatency      = 8
	reservedLatency = 1 << 19
)

func blockSize() int { return len(benchmarks) * len(configNames) }

// group is one config group of a request: two designs sharing a cache
// size and a memory latency.
type group struct {
	names   [2]string
	cacheKB int
	latency int
}

// configs resolves the group the way the service does: named design,
// then cache size, then latency.
func (g group) configs() ([]core.Config, error) {
	cfgs := make([]core.Config, len(g.names))
	for i, name := range g.names {
		cfg, err := core.ConfigByName(name)
		if err != nil {
			return nil, err
		}
		cfg.CacheSize = g.cacheKB << 10
		cfg = core.WithLatency(cfg, g.latency)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("group %v: %w", g, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// request is what one request asks for.
type request struct {
	bench  string // one of workloads.Benchmarks(), at test scale
	group  group
	format string // "" (JSON) or "text"
}

// schedule is the seeded input of one serve run: what every request asks
// for.
type schedule struct {
	seed uint64
	mix  mix

	mu     sync.Mutex
	blocks map[int][]request // guarded by mu; the blocks in use
}

// maxBlocks bounds how many blocks a schedule keeps made, so that what a
// run holds does not grow with how many requests it sends. A round uses
// one block, the pool two.
const maxBlocks = 4

func newSchedule(m mix, seed uint64) *schedule {
	return &schedule{seed: seed, mix: m, blocks: map[int][]request{}}
}

// block is block b's requests in their seeded order.
func (s *schedule) block(b int) []request {
	s.mu.Lock()
	defer s.mu.Unlock()
	qs, ok := s.blocks[b]
	if !ok {
		if len(s.blocks) == maxBlocks {
			clear(s.blocks)
		}
		qs = s.makeBlock(b)
		s.blocks[b] = qs
	}
	return qs
}

func (s *schedule) makeBlock(b int) []request {
	rng := rand.New(rand.NewPCG(s.seed, streamBlocks+uint64(b)))
	qs := make([]request, 0, blockSize())
	for _, name := range benchmarks {
		for x, y := range derangement(rng, len(configNames)) {
			q := request{bench: name, group: group{
				names:   [2]string{configNames[x], configNames[y]},
				cacheKB: groupCacheKB[rng.IntN(len(groupCacheKB))],
				latency: minLatency + b,
			}}
			if rng.IntN(4) == 0 {
				q.format = "text"
			}
			qs = append(qs, q)
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// derangement is a seeded permutation of 0..n-1 that moves every element:
// Sattolo's algorithm, which draws a random n-cycle.
func derangement(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// unique is the i-th request of a run whose requests never repeat.
func (s *schedule) unique(i int) request { return s.block(i / blockSize())[i%blockSize()] }

// poolIndex is the pool entry request i asks for: Zipf (s = 1.1) over
// the pool, so a few entries take most of the traffic.
func (s *schedule) poolIndex(i int) int {
	rng := rand.New(rand.NewPCG(s.seed, streamZipf+uint64(i)))
	return int(rand.NewZipf(rng, 1.1, 1, uint64(s.mix.pool-1)).Uint64())
}

// request is the i-th request of the run.
func (s *schedule) request(i int) request {
	if s.mix.pool > 0 {
		return s.unique(s.poolIndex(i))
	}
	return s.unique(i)
}

// simulateBody is the JSON body of POST /v1/simulate.
type simulateBody struct {
	Workload string             `json:"workload"`
	Scale    string             `json:"scale"`
	Seed     uint64             `json:"seed"`
	Configs  []serve.ConfigSpec `json:"configs"`
}

// httpRequest builds q against base (the router or a shard). Streamed
// requests upload body, the SCTZ encoding of q's trace.
func (q request) httpRequest(base string, stream bool, body []byte) (*http.Request, error) {
	if stream {
		v := url.Values{}
		for _, n := range q.group.names {
			v.Add("config", n)
		}
		v.Set("cache_kb", strconv.Itoa(q.group.cacheKB))
		v.Set("latency", strconv.Itoa(q.group.latency))
		if q.format != "" {
			v.Set("format", q.format)
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/simulate/trace?"+v.Encode(), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		return req, nil
	}
	sb := simulateBody{Workload: q.bench, Scale: "test", Seed: traceSeed}
	for _, n := range q.group.names {
		sb.Configs = append(sb.Configs, serve.ConfigSpec{Name: n, CacheKB: q.group.cacheKB, Latency: q.group.latency})
	}
	data, err := json.Marshal(sb)
	if err != nil {
		return nil, err
	}
	u := base + "/v1/simulate"
	if q.format != "" {
		u += "?format=" + q.format
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}
