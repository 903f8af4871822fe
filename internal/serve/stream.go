package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/trace"
)

// POST /v1/simulate/trace is the streaming face of /v1/simulate: the body
// IS the trace (flat SCTR, compressed SCTZ, or din text — sniffed, like
// every other trace entry point), the config group rides in query
// parameters, and the records flow from the socket through the fused
// kernel in pooled batches. Nothing is materialised and nothing is
// cached, so the endpoint is exempt from MaxBodyBytes: the bound that
// matters for a stream is records decoded, which Config.MaxTraceRecords
// caps (softcache-served's -max-trace-records flag). A multi-gigabyte
// capture simulates in O(batch) memory.

// StreamKeyPrefix is how many leading body bytes StreamRoutingKey
// fingerprints. The cluster router cannot buffer a streamed body to
// derive its routing key the way it does for JSON requests, so shard
// affinity hangs off a bounded prefix: 64 KiB covers the header plus the
// first chunks of any real capture, which is as identity-stable as a
// whole-body hash for streams that are re-uploads of the same trace.
const StreamKeyPrefix = 64 << 10

// StreamRoutingKey derives the consistent-hash key for a streamed trace
// body from its bounded prefix (up to StreamKeyPrefix bytes). It is the
// streaming analogue of RoutingKey: same trace bytes, same key, same
// home shard — even though no shard caches the stream, affinity keeps a
// re-uploaded trace's load on one replica instead of spraying the fleet.
func StreamRoutingKey(prefix []byte) string {
	if len(prefix) > StreamKeyPrefix {
		prefix = prefix[:StreamKeyPrefix]
	}
	sum := sha256.Sum256(prefix)
	return fmt.Sprintf("stream:%x", sum[:12])
}

// budgetReader enforces the daemon's record budget over any trace
// format and tallies what streams past: cumulative record count (the
// response's references field), tag classes (the text report needs
// them), and the daemon-wide decode counter. The budget is cumulative
// across the whole body — chunked formats cannot dodge it by announcing
// small pieces — and exceeding it poisons the reader with ErrTooLarge.
type budgetReader struct {
	inner  trace.BatchReader
	budget int64
	read   atomic.Int64 // written by the simulation goroutine, read after it finishes
	tags   trace.TagCounts
	err    error
}

func (r *budgetReader) Name() string { return r.inner.Name() }
func (r *budgetReader) Len() int     { return r.inner.Len() }

func (r *budgetReader) ReadBatch(dst []trace.Record) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.inner.ReadBatch(dst)
	read := r.read.Add(int64(n))
	r.tags.AddRecords(dst[:n])
	if read > r.budget {
		r.err = fmt.Errorf("%w: body exceeds the %d-record budget", trace.ErrTooLarge, r.budget)
		return n, r.err
	}
	return n, err
}

// streamPlan is a validated /v1/simulate/trace query string.
type streamPlan struct {
	cfgs    []core.Config
	timeout int64
	format  string
}

// parseStreamQuery validates the query parameters of a streamed simulate
// request. The grammar mirrors the JSON ConfigSpec: config may repeat
// (one result per name, same order), and the numeric overrides apply to
// every named config, exactly like softcache-sim's flags.
func parseStreamQuery(q url.Values) (*streamPlan, *apiError) {
	known := map[string]bool{
		"config": true, "cache_kb": true, "line": true, "vline": true,
		"latency": true, "assoc": true, "timeout_ms": true, "format": true,
	}
	for k := range q {
		if !known[k] {
			return nil, badRequest("unknown query parameter %q", k)
		}
	}
	intParam := func(key string) (int, *apiError) {
		v := q.Get(key)
		if v == "" {
			return 0, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, badRequest("query parameter %s=%q is not an integer", key, v)
		}
		return n, nil
	}
	spec := ConfigSpec{}
	var aerr *apiError
	if spec.CacheKB, aerr = intParam("cache_kb"); aerr != nil {
		return nil, aerr
	}
	if spec.Line, aerr = intParam("line"); aerr != nil {
		return nil, aerr
	}
	if q.Get("vline") != "" {
		v, aerr := intParam("vline")
		if aerr != nil {
			return nil, aerr
		}
		spec.VLine = &v
	}
	if spec.Latency, aerr = intParam("latency"); aerr != nil {
		return nil, aerr
	}
	if spec.Assoc, aerr = intParam("assoc"); aerr != nil {
		return nil, aerr
	}
	timeoutMS, aerr := intParam("timeout_ms")
	if aerr != nil {
		return nil, aerr
	}
	if timeoutMS < 0 || int64(timeoutMS) > maxTimeoutMS {
		return nil, badRequest("timeout_ms %d out of range [0, %d]", timeoutMS, maxTimeoutMS)
	}
	format := q.Get("format")
	if format != "" && format != "json" && format != "text" {
		return nil, badRequest("unknown format %q (want json or text)", format)
	}

	names := q["config"]
	if len(names) == 0 {
		names = []string{"soft"}
	}
	if len(names) > MaxConfigs {
		return nil, badRequest("%d configs exceed the per-request limit %d", len(names), MaxConfigs)
	}
	p := &streamPlan{timeout: int64(timeoutMS), format: format}
	for i, name := range names {
		cs := spec
		cs.Name = name
		cfg, err := cs.build()
		if err != nil {
			return nil, badRequest("config %d: %v", i, err)
		}
		p.cfgs = append(p.cfgs, cfg)
	}
	return p, nil
}

// streamBodyError maps a streaming simulate failure to its HTTP status.
// Every error out of the decode-simulate loop is the body's fault — the
// configs were validated before a byte was read — so the default is 400,
// with the record budget surfacing as 413 like the JSON body cap does.
func streamBodyError(err error) *apiError {
	if errors.Is(err, trace.ErrTooLarge) {
		return &apiError{status: http.StatusRequestEntityTooLarge, msg: err.Error()}
	}
	return badRequest("%v", err)
}

// hashingReader tees everything read through it into a SHA-256, so the
// stream's content fingerprint falls out of the decode pass for free.
type hashingReader struct {
	r io.Reader
	h hash.Hash
}

func newHashingReader(r io.Reader) *hashingReader {
	return &hashingReader{r: r, h: sha256.New()}
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	hr.h.Write(p[:n])
	return n, err
}

func (hr *hashingReader) sum() string { return hex.EncodeToString(hr.h.Sum(nil)) }

// fingerprintHexLen is the length of a hex-encoded stream fingerprint,
// which prefixes every cached stream envelope.
const fingerprintHexLen = sha256.Size * 2

// streamEnvelope is the cached value for a streamed upload: the full-body
// fingerprint (fixed-width hex) followed by the rendered response. The
// entry is keyed by the body's bounded *prefix* (the same identity the
// router shards on), so a lookup needs no decode — the embedded full
// fingerprint then disambiguates genuine repeats from prefix collisions.
func streamEnvelope(fp string, body []byte) []byte {
	env := make([]byte, 0, len(fp)+len(body))
	return append(append(env, fp...), body...)
}

func parseStreamEnvelope(env []byte) (fp string, body []byte, ok bool) {
	if len(env) < fingerprintHexLen {
		return "", nil, false
	}
	return string(env[:fingerprintHexLen]), env[fingerprintHexLen:], true
}

// maxSpoolBytes caps the temp-file spool used to verify a candidate
// repeat upload. The cap exists because raw bytes are spooled before any
// record accounting can happen; an upload past it is rejected with 413
// exactly like one past the record budget.
const maxSpoolBytes = 16 << 30

// spoolStreamBody drains the request body (prefix already read plus the
// rest) into an unlinked temp file while hashing it, returning the
// replayable spool and the full-body fingerprint. The caller closes the
// spool; the file itself is already removed.
func spoolStreamBody(prefix []byte, rest io.Reader) (*os.File, string, *apiError) {
	f, err := os.CreateTemp("", "softcache-stream-")
	if err != nil {
		return nil, "", &apiError{status: http.StatusInternalServerError, msg: fmt.Sprintf("spooling stream: %v", err)}
	}
	os.Remove(f.Name()) // anonymous: the descriptor is the only reference
	h := sha256.New()
	mw := io.MultiWriter(f, h)
	fail := func(aerr *apiError) (*os.File, string, *apiError) {
		f.Close()
		return nil, "", aerr
	}
	if _, err := mw.Write(prefix); err != nil {
		return fail(&apiError{status: http.StatusInternalServerError, msg: fmt.Sprintf("spooling stream: %v", err)})
	}
	n, err := io.Copy(mw, io.LimitReader(rest, maxSpoolBytes-int64(len(prefix))+1))
	if err != nil {
		return fail(badRequest("reading request body: %v", err))
	}
	if int64(len(prefix))+n > maxSpoolBytes {
		return fail(&apiError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("stream body exceeds the %d-byte spool limit", int64(maxSpoolBytes))})
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fail(&apiError{status: http.StatusInternalServerError, msg: fmt.Sprintf("spooling stream: %v", err)})
	}
	return f, hex.EncodeToString(h.Sum(nil)), nil
}

// streamSimulate decodes a trace body from r and runs the fused kernel
// over it, returning the rendered response body. Decode accounting is
// committed whether the run succeeds or not: a stream that fails
// mid-body still decoded its records and chunks.
func (s *Server) streamSimulate(rctx context.Context, plan *streamPlan, body io.Reader, deadline time.Time) ([]byte, *apiError) {
	// The header sniff happens inside the worker slot: it is the first
	// read of a body that may still be crossing the network.
	br, err := trace.NewAnyReader(body, "upload")
	if err != nil {
		return nil, streamBodyError(err)
	}
	rd := &budgetReader{inner: br, budget: s.cfg.MaxTraceRecords}
	defer func() {
		s.met.traceRecords.Add(uint64(rd.read.Load()))
		if sr, ok := br.(*trace.StreamReader); ok {
			s.met.traceChunks.Add(sr.Chunks())
		}
	}()

	results, aerr := s.runKernel(rctx, deadline, plan.cfgs, rd, streamBodyError)
	if aerr != nil {
		return nil, aerr
	}

	if plan.format == "text" {
		var buf bytes.Buffer
		for i, res := range results {
			if i > 0 {
				buf.WriteByte('\n')
			}
			metrics.SimulationReport(&buf, rd.tags, res)
		}
		return buf.Bytes(), nil
	}
	resp := SimulateResponse{Trace: rd.Name(), References: uint64(rd.read.Load())}
	for _, res := range results {
		resp.Results = append(resp.Results, ConfigResult{
			Config:      res.Config,
			AMAT:        res.AMAT(),
			MissRatio:   res.MissRatio(),
			WordsPerRef: res.Stats.WordsPerReference(),
			Stats:       res.Stats,
		})
	}
	return encodeJSON(resp), nil
}

func (s *Server) handleSimulateTrace(w http.ResponseWriter, r *http.Request) {
	plan, aerr := parseStreamQuery(r.URL.Query())
	if aerr != nil {
		aerr.write(w)
		return
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

	if s.results == nil {
		// No result cache: decode straight off the socket, hashing as it
		// streams so the response still carries the upload's identity.
		hr := newHashingReader(r.Body)
		body, aerr := s.streamSimulate(r.Context(), plan, hr, deadline)
		if aerr != nil {
			if aerr.status != 499 {
				aerr.write(w)
			}
			return
		}
		io.Copy(io.Discard, hr) // any undecoded trailing bytes are identity too
		w.Header().Set(TraceFingerprintHeader, hr.sum())
		writeResult(w, plan.format, body, "")
		return
	}
	s.handleStreamCached(w, r, plan, deadline)
}

// handleStreamCached is the streamed-simulate path with a result cache:
// identical uploads become lookups instead of re-decodes. The cache entry
// is keyed by the body's bounded prefix (the router's stream identity);
// on a candidate hit the body is spooled — not decoded — and served from
// cache when its full fingerprint matches the stored one. A prefix
// collision replays the spool through the kernel, so a lookup can cost a
// spool but never a wrong answer. Each request counts exactly one hit or
// miss (via Peek + Hit/Miss — streams cannot coalesce through Do because
// every request owns its own body).
func (s *Server) handleStreamCached(w http.ResponseWriter, r *http.Request, plan *streamPlan, deadline time.Time) {
	cfgKey := canonicalConfigs(plan.cfgs)
	prefix := make([]byte, StreamKeyPrefix)
	n, err := io.ReadFull(r.Body, prefix)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		badRequest("reading request body: %v", err).write(w)
		return
	}
	prefix = prefix[:n]
	pkey := s.resultKey("stream", StreamRoutingKey(prefix), cfgKey, plan.format)

	if env, ok := s.results.Peek(pkey); ok {
		if storedFP, cached, ok := parseStreamEnvelope(env); ok {
			spool, fullFP, aerr := spoolStreamBody(prefix, r.Body)
			if aerr != nil {
				aerr.write(w)
				return
			}
			defer spool.Close()
			if fullFP == storedFP {
				s.results.Hit()
				w.Header().Set(TraceFingerprintHeader, fullFP)
				writeResult(w, plan.format, cached, resultHit)
				return
			}
			// Same prefix, different body: replay the spool through the
			// kernel. The newest upload takes over the prefix slot.
			s.results.Miss()
			body, aerr := s.streamSimulate(r.Context(), plan, spool, deadline)
			if aerr != nil {
				if aerr.status != 499 {
					aerr.write(w)
				}
				return
			}
			s.results.Put(pkey, streamEnvelope(fullFP, body))
			w.Header().Set(TraceFingerprintHeader, fullFP)
			writeResult(w, plan.format, body, resultMiss)
			return
		}
	}

	// First sighting of this prefix: decode straight off the socket with
	// a tee hash, then store the rendered body under the prefix key.
	s.results.Miss()
	hr := newHashingReader(io.MultiReader(bytes.NewReader(prefix), r.Body))
	body, aerr := s.streamSimulate(r.Context(), plan, hr, deadline)
	if aerr != nil {
		if aerr.status != 499 {
			aerr.write(w)
		}
		return
	}
	io.Copy(io.Discard, hr)
	fullFP := hr.sum()
	s.results.Put(pkey, streamEnvelope(fullFP, body))
	w.Header().Set(TraceFingerprintHeader, fullFP)
	writeResult(w, plan.format, body, resultMiss)
}
