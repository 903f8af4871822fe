package serve

import (
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

	"softcache/internal/core"
	"softcache/internal/trace"
)

// POST /v1/simulate/trace is the streaming face of /v1/simulate: the body
// IS the trace (flat SCTR, compressed SCTZ, or din text — sniffed, like
// every other trace entry point), the config group rides in query
// parameters, and the records flow from the socket through the fused
// kernel in pooled batches. The trace is never materialised and never
// enters the trace cache, so the endpoint is exempt from MaxBodyBytes:
// the bound that matters for a stream is records decoded, which
// Config.MaxTraceRecords caps (softcache-served's -max-trace-records
// flag). A multi-gigabyte capture simulates in O(batch) memory. With a
// result cache configured, the rendered response is cached like any
// other, keyed on the body's 64 KiB-prefix identity (StreamRoutingKey)
// and checked against the whole body's fingerprint on a hit.

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
// home shard — so a re-uploaded trace lands on the replica whose result
// cache already holds its answer, instead of spraying the fleet.
func StreamRoutingKey(prefix []byte) string {
	if len(prefix) > StreamKeyPrefix {
		prefix = prefix[:StreamKeyPrefix]
	}
	sum := sha256.Sum256(prefix)
	return streamKey(sum[:])
}

// streamKey formats the routing key of a prefix's SHA-256 digest.
func streamKey(sum []byte) string { return fmt.Sprintf("stream:%x", sum[:12]) }

// budgetReader enforces the daemon's record budget over any trace
// format and tallies what streams past: cumulative record count (the
// response's references field) and, when tags is set, the tag classes
// the text report needs. The budget is cumulative across the whole body
// — chunked formats cannot dodge it by announcing small pieces — and
// exceeding it poisons the reader with ErrTooLarge.
type budgetReader struct {
	inner  trace.BatchReader
	budget int64
	read   atomic.Int64     // written by the simulation goroutine, read after it finishes
	tags   *trace.TagCounts // nil: the response format reads no tags
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
	if r.tags != nil {
		r.tags.AddRecords(dst[:n])
	}
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
	spec := ConfigSpec{VLine: new(int)}
	timeoutMS := 0
	ints := [...]struct {
		key string
		dst *int
	}{
		{"cache_kb", &spec.CacheKB}, {"line", &spec.Line}, {"vline", spec.VLine},
		{"latency", &spec.Latency}, {"assoc", &spec.Assoc}, {"timeout_ms", &timeoutMS},
	}
	for k := range q {
		known := k == "config" || k == "format"
		for _, p := range ints {
			known = known || k == p.key
		}
		if !known {
			return nil, badRequest("unknown query parameter %q", k)
		}
	}
	for _, p := range ints {
		if v := q.Get(p.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, badRequest("query parameter %s=%q is not an integer", p.key, v)
			}
			*p.dst = n
		}
	}
	if q.Get("vline") == "" {
		spec.VLine = nil
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

// streamBodyError maps a streaming simulate failure that is neither the
// deadline's nor the client's to its HTTP status. Every such error is the
// body's fault — the configs were validated before a byte was read — so
// the default is 400, with the record budget surfacing as 413 like the
// JSON body cap does.
func streamBodyError(err error) *apiError {
	if errors.Is(err, trace.ErrTooLarge) {
		return &apiError{status: http.StatusRequestEntityTooLarge, msg: err.Error()}
	}
	return badRequest("%v", err)
}

// hashingReader reads an upload's body and tees it into one SHA-256, so
// the stream's content fingerprint falls out of the decode pass for free.
// The body's prefix (its first StreamKeyPrefix bytes) is read before the
// reader is made and hashed first, and its routing key is taken from the
// running hash at that point: Sum leaves the state as it is, so no byte
// is hashed twice.
type hashingReader struct {
	prefix    []byte // the prefix's bytes not yet read; already hashed
	r         io.Reader
	h         hash.Hash
	prefixKey string // StreamRoutingKey of the prefix
}

// readPrefix reads upload's prefix and returns a hashingReader over the
// whole body.
func readPrefix(upload io.Reader) (*hashingReader, error) {
	prefix := make([]byte, StreamKeyPrefix)
	n, err := io.ReadFull(upload, prefix)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	hr := &hashingReader{prefix: prefix[:n], r: upload, h: sha256.New()}
	hr.h.Write(hr.prefix)
	hr.prefixKey = streamKey(hr.h.Sum(nil))
	return hr, nil
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	if len(hr.prefix) > 0 {
		n := copy(p, hr.prefix)
		hr.prefix = hr.prefix[n:]
		return n, nil
	}
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

// spoolStreamBody drains the whole upload into an unlinked temp file,
// returning the replayable spool. The caller closes the spool; the file
// itself is already removed.
func spoolStreamBody(upload io.Reader) (*os.File, error) {
	f, err := os.CreateTemp("", "softcache-stream-")
	if err != nil {
		return nil, &apiError{status: http.StatusInternalServerError, msg: fmt.Sprintf("spooling stream: %v", err)}
	}
	os.Remove(f.Name()) // anonymous: the descriptor is the only reference
	fail := func(err error) (*os.File, error) {
		f.Close()
		return nil, err
	}
	n, err := io.Copy(f, io.LimitReader(upload, maxSpoolBytes+1))
	if err != nil {
		return fail(fmt.Errorf("reading request body: %w", err))
	}
	if n > maxSpoolBytes {
		return fail(&apiError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("stream body exceeds the %d-byte spool limit", int64(maxSpoolBytes))})
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fail(&apiError{status: http.StatusInternalServerError, msg: fmt.Sprintf("spooling stream: %v", err)})
	}
	return f, nil
}

func (s *Server) handleSimulateTrace(w http.ResponseWriter, r *http.Request) {
	plan, aerr := parseStreamQuery(r.URL.Query())
	if aerr != nil {
		aerr.write(w)
		return
	}
	var fp, outcome string
	body, aerr := s.admitted(r, plan.timeout, streamBodyError, func(ctx context.Context) (body []byte, err error) {
		// The body's reads share the request's deadline, so a stalled
		// upload ends in a 504 instead of holding its worker slot. A
		// writer with no connection behind it (a test recorder) has no
		// read to bound, so the error is dropped.
		deadline, _ := ctx.Deadline()
		_ = http.NewResponseController(w).SetReadDeadline(deadline)
		body, fp, outcome, err = s.streamSimulate(ctx, plan, r.Body)
		return body, err
	})
	if aerr != nil {
		aerr.write(w)
		return
	}
	w.Header().Set(TraceFingerprintHeader, fp)
	writeResult(w, plan.format, body, outcome)
}

// streamSimulate answers one streamed upload inside its worker slot,
// returning the rendered body, the upload's full fingerprint and the
// result-cache outcome ("" with no cache configured). With a result
// cache, identical uploads become lookups instead of re-decodes: the
// entry is keyed by the body's bounded prefix (the router's stream
// identity), and when a prefix entry exists the body is spooled — not
// decoded — and served from the cache if its full fingerprint matches
// the stored one. A prefix collision replays the spool through the
// kernel, so a lookup can cost a spool but never a wrong answer. Each
// request counts exactly one hit or miss (via Peek + Hit/Miss — streams
// cannot coalesce through Do because every request owns its own body).
// Decode accounting is committed whether the run succeeds or not: a
// stream that fails mid-body still decoded its records and chunks.
func (s *Server) streamSimulate(ctx context.Context, plan *streamPlan, upload io.Reader) (body []byte, fp, outcome string, err error) {
	hr, err := readPrefix(upload)
	if err != nil {
		return nil, "", "", err
	}
	var src io.Reader = hr

	var pkey string
	if s.results != nil {
		pkey = s.resultKey("stream", hr.prefixKey, canonicalConfigs(plan.cfgs), plan.format)
		if env, ok := s.results.Peek(pkey); ok {
			if storedFP, cached, ok := parseStreamEnvelope(env); ok {
				spool, err := spoolStreamBody(hr)
				if err != nil {
					return nil, "", "", err
				}
				defer spool.Close()
				if fullFP := hr.sum(); fullFP == storedFP {
					s.results.Hit()
					return cached, fullFP, resultHit, nil
				}
				// Same prefix, different body: replay the spool (hr,
				// drained, already holds the whole body's hash). The
				// newest upload takes over the prefix slot.
				src = spool
			}
		}
		s.results.Miss()
		outcome = resultMiss
	}

	br, err := trace.NewAnyReader(src, "upload")
	if err != nil {
		return nil, "", "", err
	}
	rd := &budgetReader{inner: br, budget: s.cfg.MaxTraceRecords}
	var tags trace.TagCounts
	if plan.format == "text" {
		rd.tags = &tags
	}
	results, err := core.Run(ctx, core.Job{Configs: plan.cfgs}, rd)
	s.met.traceRecords.Add(uint64(rd.read.Load()))
	if sr, ok := br.(*trace.StreamReader); ok {
		s.met.traceChunks.Add(sr.Chunks())
	}
	if err != nil {
		return nil, "", "", err
	}
	// Any undecoded trailing bytes are identity too.
	if _, err := io.Copy(io.Discard, hr); err != nil {
		return nil, "", "", fmt.Errorf("reading request body: %w", err)
	}
	fp = hr.sum()
	body = renderSimulate(plan.format, rd.Name(), uint64(rd.read.Load()), tags, results)
	if s.results != nil {
		s.results.Put(pkey, streamEnvelope(fp, body))
	}
	return body, fp, outcome, nil
}
