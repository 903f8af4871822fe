package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// streamBody POSTs raw bytes to /v1/simulate/trace with the given query.
func streamBody(t *testing.T, base, query string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/simulate/trace"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func testTraceBytes(t *testing.T) (tr *trace.Trace, flat, sctz []byte) {
	t.Helper()
	tr, err := workloads.Trace("MV", workloads.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fb, zb bytes.Buffer
	if err := trace.Write(&fb, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSCTZ(&zb, tr); err != nil {
		t.Fatal(err)
	}
	return tr, fb.Bytes(), zb.Bytes()
}

func TestSimulateTraceStreamed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr, flat, sctz := testTraceBytes(t)

	// The same trace streamed in either binary format must produce the
	// identical response (modulo nothing: both formats carry the name).
	stFlat, bodyFlat := streamBody(t, ts.URL, "?config=soft&config=standard", flat)
	if stFlat != http.StatusOK {
		t.Fatalf("flat stream: status %d: %s", stFlat, bodyFlat)
	}
	stZ, bodyZ := streamBody(t, ts.URL, "?config=soft&config=standard", sctz)
	if stZ != http.StatusOK {
		t.Fatalf("sctz stream: status %d: %s", stZ, bodyZ)
	}
	if !bytes.Equal(bodyFlat, bodyZ) {
		t.Fatalf("flat and sctz streams disagree:\nflat: %s\nsctz: %s", bodyFlat, bodyZ)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(bodyZ, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.References != uint64(tr.Len()) {
		t.Fatalf("references = %d, want %d", resp.References, tr.Len())
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}

	// The streamed answer is byte-identical to the materialised endpoint's
	// over the same trace, in both formats: one renderer serves both.
	for _, format := range []string{"json", "text"} {
		stMat, bodyMat := post(t, ts.URL+"/v1/simulate?format="+format,
			`{"workload":"MV","scale":"test","configs":[{"name":"soft"},{"name":"standard"}]}`)
		if stMat != http.StatusOK {
			t.Fatalf("materialised %s simulate: status %d: %s", format, stMat, bodyMat)
		}
		for name, upload := range map[string][]byte{"flat": flat, "sctz": sctz} {
			st, body := streamBody(t, ts.URL, "?config=soft&config=standard&format="+format, upload)
			if st != http.StatusOK {
				t.Fatalf("%s %s stream: status %d: %s", name, format, st, body)
			}
			if !bytes.Equal(body, bodyMat) {
				t.Fatalf("%s %s stream differs from /v1/simulate:\nstream: %s\nsimulate: %s", name, format, body, bodyMat)
			}
		}
	}

	// The decode counters must have moved and be rendered in /metrics.
	stM, metricsBody := get(t, ts.URL+"/metrics")
	if stM != http.StatusOK {
		t.Fatalf("metrics: status %d", stM)
	}
	m := string(metricsBody)
	if !strings.Contains(m, "softcache_trace_decode_records_total") ||
		strings.Contains(m, "softcache_trace_decode_records_total 0\n") {
		t.Fatalf("decode records counter absent or zero:\n%s", m)
	}
	if !strings.Contains(m, "softcache_trace_decode_chunks_total") ||
		strings.Contains(m, "softcache_trace_decode_chunks_total 0\n") {
		t.Fatalf("decode chunks counter absent or zero after an SCTZ stream:\n%s", m)
	}
}

func TestSimulateTraceDin(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	din := "0 1000\n1 1008\n0 2000\n"
	st, body := streamBody(t, ts.URL, "?config=standard", []byte(din))
	if st != http.StatusOK {
		t.Fatalf("din stream: status %d: %s", st, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.References != 3 {
		t.Fatalf("references = %d, want 3", resp.References)
	}
}

func TestSimulateTraceRecordBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTraceRecords: 100})
	_, flat, sctz := testTraceBytes(t) // MV test scale is well over 100 records
	for name, body := range map[string][]byte{"flat": flat, "sctz": sctz} {
		st, resp := streamBody(t, ts.URL, "", body)
		if st != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over budget: status %d (want 413): %s", name, st, resp)
		}
		if !strings.Contains(string(resp), "budget") {
			t.Errorf("%s over budget: error body does not name the budget: %s", name, resp)
		}
	}
}

func TestSimulateTraceBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, _, sctz := testTraceBytes(t)

	cases := []struct {
		name, query string
		body        []byte
		want        int
	}{
		{"garbage body", "", []byte("not a trace\n"), http.StatusBadRequest},
		{"truncated sctz", "", sctz[:len(sctz)-9], http.StatusBadRequest},
		{"unknown config", "?config=nope", sctz, http.StatusBadRequest},
		{"unknown param", "?wat=1", sctz, http.StatusBadRequest},
		{"bad override", "?line=banana", sctz, http.StatusBadRequest},
		{"bad format", "?format=xml", sctz, http.StatusBadRequest},
		{"too many configs", "?" + strings.Repeat("config=soft&", MaxConfigs+1), sctz, http.StatusBadRequest},
	}
	for _, tc := range cases {
		st, resp := streamBody(t, ts.URL, tc.query, tc.body)
		if st != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, st, tc.want, resp)
		}
	}

	// A corrupt SCTZ chunk (bit flip past the header) must fail the
	// request with 400, not 500: the body is client data.
	corrupt := append([]byte(nil), sctz...)
	corrupt[len(corrupt)/2] ^= 0x40
	st, resp := streamBody(t, ts.URL, "", corrupt)
	if st != http.StatusBadRequest {
		t.Errorf("corrupt sctz: status %d (want 400): %s", st, resp)
	}
}

func TestStreamRoutingKeyStable(t *testing.T) {
	_, _, sctz := testTraceBytes(t)
	k1 := StreamRoutingKey(sctz)
	k2 := StreamRoutingKey(sctz)
	if k1 != k2 {
		t.Fatalf("same bytes, different keys: %s vs %s", k1, k2)
	}
	if !strings.HasPrefix(k1, "stream:") {
		t.Fatalf("key %q lacks the stream: prefix", k1)
	}
	// Only the bounded prefix participates: appending beyond it must not
	// change the key, while perturbing an early byte must.
	long := make([]byte, StreamKeyPrefix+1024)
	copy(long, sctz)
	if StreamRoutingKey(long) != StreamRoutingKey(long[:StreamKeyPrefix]) {
		t.Fatal("bytes past the prefix changed the key")
	}
	perturbed := append([]byte(nil), sctz...)
	perturbed[8] ^= 1
	if StreamRoutingKey(perturbed) == k1 {
		t.Fatal("different prefix bytes produced the same key")
	}
}

// stallUpload sends the first half of body to /v1/simulate/trace and then
// stalls with the connection open, returning the status the server
// answered and how long it took. The client gives up after 3 s, so a
// server that never answers fails the caller's checks instead of hanging
// the test.
func stallUpload(t *testing.T, base, query string, body []byte) (int, time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	// Closing the pipe ends the upload: the transport waits for its body
	// writer before it reports a canceled request.
	context.AfterFunc(ctx, func() { pw.Close() })
	go pw.Write(body[:len(body)/2]) // returns once read, or when the pipe closes
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/simulate/trace"+query, pr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stalled upload got no answer after %v: %v", time.Since(start), err)
	}
	resp.Body.Close()
	return resp.StatusCode, time.Since(start)
}

// TestStalledUploadTimesOut: an upload that stalls mid-body is bounded by
// its request deadline — a 504 within a second, counted once as a
// timeout, with its worker slot released — on the cache-less path, on a
// result-cache first sighting, and on the spool path, where a stored
// entry for the same 64 KiB prefix makes the server spool the body.
func TestStalledUploadTimesOut(t *testing.T) {
	_, flat, _ := testTraceBytes(t)
	if len(flat)/2 <= StreamKeyPrefix {
		t.Fatalf("half the flat trace is %d bytes; the spool case needs more than the %d-byte prefix", len(flat)/2, StreamKeyPrefix)
	}
	const query = "?config=soft&timeout_ms=200"
	check := func(t *testing.T, s *Server, base string) {
		t.Helper()
		code, took := stallUpload(t, base, query, flat)
		if code != http.StatusGatewayTimeout || took > time.Second {
			t.Fatalf("stalled upload: status %d after %v, want 504 within 1s", code, took)
		}
		if n := s.met.timeouts.Load(); n != 1 {
			t.Fatalf("timeout counter %d, want 1", n)
		}
		if n := s.met.inflight.Load(); n != 0 {
			t.Fatalf("inflight %d after the answer, want 0", n)
		}
	}

	t.Run("no-cache", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		check(t, s, ts.URL)
	})
	t.Run("first-sighting", func(t *testing.T) {
		s, ts, _ := newCachedServer(t, t.TempDir())
		check(t, s, ts.URL)
	})
	t.Run("spool", func(t *testing.T) {
		s, ts, rc := newCachedServer(t, t.TempDir())
		if code, body := streamBody(t, ts.URL, query, flat); code != http.StatusOK {
			t.Fatalf("storing the prefix entry: status %d: %s", code, body)
		}
		check(t, s, ts.URL)
		if st := rc.Stats(); st.Stores != 1 {
			t.Fatalf("stores %d, want 1: a timed-out upload must not be stored", st.Stores)
		}
	})
}
