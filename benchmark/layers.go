package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"time"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/resultcache"
	"softcache/internal/serve"
	"softcache/internal/trace"
)

// layerReps is how many times measureLayers repeats each timing; it
// reports the median.
const layerReps = 3

// expectedResponse is the JSON answer of a simulate request, built from
// core results the way the service documents it.
func expectedResponse(t *trace.Trace, results []core.Result) serve.SimulateResponse {
	resp := serve.SimulateResponse{Trace: t.Name, References: uint64(len(t.Records))}
	for _, res := range results {
		resp.Results = append(resp.Results, serve.ConfigResult{
			Config:      res.Config,
			AMAT:        res.AMAT(),
			MissRatio:   res.MissRatio(),
			WordsPerRef: res.Stats.WordsPerReference(),
			Stats:       res.Stats,
		})
	}
	return resp
}

// renderJSON is the metrics layer's JSON rendering of an answer.
func renderJSON(t *trace.Trace, results []core.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(expectedResponse(t, results))
	return buf.Bytes(), err
}

// renderText is the metrics layer's text rendering of an answer.
func renderText(t *trace.Trace, results []core.Result) []byte {
	var buf bytes.Buffer
	tags := t.CountTags()
	for i, res := range results {
		if i > 0 {
			buf.WriteByte('\n')
		}
		metrics.SimulationReport(&buf, tags, res)
	}
	return buf.Bytes()
}

// verifyAnswer recomputes q with core.SimulateManyTrace and compares the
// service's answer: byte for byte for text, field by field for JSON.
func verifyAnswer(t *trace.Trace, q request, body []byte) error {
	cfgs, err := q.group.configs()
	if err != nil {
		return err
	}
	results, err := core.SimulateManyTrace(context.Background(), cfgs, t)
	if err != nil {
		return err
	}
	if q.format == "text" {
		if !bytes.Equal(body, renderText(t, results)) {
			return fmt.Errorf("text report differs from the recomputed one")
		}
		return nil
	}
	var got serve.SimulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	want := expectedResponse(t, results)
	if got.Trace != want.Trace || got.References != want.References || len(got.Results) != len(want.Results) {
		return fmt.Errorf("answer covers trace %q (%d refs, %d results), want %q (%d refs, %d results)",
			got.Trace, got.References, len(got.Results), want.Trace, want.References, len(want.Results))
	}
	for k, w := range want.Results {
		g := got.Results[k]
		fields := []struct {
			name      string
			got, want any
		}{
			{"config", g.Config, w.Config}, {"amat", g.AMAT, w.AMAT}, {"miss_ratio", g.MissRatio, w.MissRatio},
			{"words_per_reference", g.WordsPerRef, w.WordsPerRef}, {"stats", g.Stats, w.Stats},
		}
		for _, f := range fields {
			if !reflect.DeepEqual(f.got, f.want) {
				return fmt.Errorf("result %d field %s is %v, want %v", k, f.name, f.got, f.want)
			}
		}
	}
	return nil
}

// decodeAll decodes a trace body batch by batch, as the streamed
// endpoint does, and returns the record count.
func decodeAll(body []byte) (int, error) {
	rd, err := trace.NewAnyReader(bytes.NewReader(body), "upload")
	if err != nil {
		return 0, err
	}
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	total := 0
	for {
		n, err := rd.ReadBatch(*batch)
		total += n
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// measureLayers times each layer's public entry point on the workload's
// traces: the kernel per record (one config at a time and fused over
// {standard, victim, soft}), SCTZ decode per record, rendering an answer
// and storing and fetching it in a scratch result cache.
func measureLayers(traces []*trace.Trace, out string, tr *tracer, rep *report) error {
	root := tr.begin("layers", 0, 0)
	defer root.end()
	ctx := context.Background()
	cfgs := []core.Config{core.Standard(), core.Victim(), core.Soft()}
	records := 0
	bodies := make([][]byte, len(traces))
	for i, t := range traces {
		records += len(t.Records)
		var buf bytes.Buffer
		if err := trace.WriteSCTZ(&buf, t); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
	}
	nsPer := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
	var single, fused, decode []float64
	for r := 0; r < layerReps; r++ {
		var ds, df, dd time.Duration
		for i, t := range traces {
			for _, cfg := range cfgs {
				sp := tr.begin("core.single", root.id, 0)
				_, err := core.SimulateContext(ctx, cfg, t)
				ds += sp.end()
				if err != nil {
					return err
				}
			}
			sp := tr.begin("core.fused", root.id, 0)
			_, err := core.SimulateManyTrace(ctx, cfgs, t)
			df += sp.end()
			if err != nil {
				return err
			}
			sp = tr.begin("trace.decode", root.id, 0)
			n, err := decodeAll(bodies[i])
			dd += sp.end()
			if err != nil || n != len(t.Records) {
				return fmt.Errorf("decoding %s: %d of %d records: %v", t.Name, n, len(t.Records), err)
			}
		}
		single = append(single, nsPer(ds, records*len(cfgs)))
		fused = append(fused, nsPer(df, records*len(cfgs)))
		decode = append(decode, nsPer(dd, records))
	}

	dir, err := os.MkdirTemp(out, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := resultcache.Open(dir, resultCacheBytes, 0)
	if err != nil {
		return err
	}
	defer scratch.Close()
	var renderJ, renderT, put, get []float64
	for r := 0; r < layerReps; r++ {
		for _, t := range traces {
			results, err := core.SimulateManyTrace(ctx, cfgs[1:], t)
			if err != nil {
				return err
			}
			sp := tr.begin("metrics.render_json", root.id, 0)
			body, err := renderJSON(t, results)
			renderJ = append(renderJ, us(sp.end()))
			if err != nil {
				return err
			}
			sp = tr.begin("metrics.render_text", root.id, 0)
			renderText(t, results)
			renderT = append(renderT, us(sp.end()))
			key := resultcache.Key{Kind: "simulate", Trace: t.Name, Configs: strconv.Itoa(r), Version: core.KernelVersion, Format: "json"}.String()
			sp = tr.begin("resultcache.put", root.id, 0)
			err = scratch.Put(key, body)
			put = append(put, us(sp.end()))
			if err != nil {
				return err
			}
			sp = tr.begin("resultcache.get", root.id, 0)
			got, ok := scratch.Get(key)
			get = append(get, us(sp.end()))
			if !ok || !bytes.Equal(got, body) {
				return fmt.Errorf("scratch result cache lost %s", t.Name)
			}
		}
	}
	rep.layers["core.single_ns_per_record"] = median(single)
	rep.layers["core.fused_ns_per_record"] = median(fused)
	rep.layers["trace.decode_ns_per_record"] = median(decode)
	rep.layers["metrics.render_json_us"] = median(renderJ)
	rep.layers["metrics.render_text_us"] = median(renderT)
	rep.layers["resultcache.put_us"] = median(put)
	rep.layers["resultcache.get_us"] = median(get)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayLatency starts the memory latencies the replay gives its
// requests, a block per level, clear of the schedule and of set-up's.
const replayLatency = reservedLatency + 1<<10

// replay re-sends the first requests of the schedule one at a
// time, after the load, through each layer's public entry point from the
// bottom up: decode (streams), kernel, rendering and the result cache,
// then the home shard's handler in process, the home shard over loopback,
// and the router. Every level but the pool mix's gets its own
// never-scheduled config group, so it is a miss as the timed request
// was. The ledger is what the router round trip leaves unexplained once
// the layers on the request's blocking path and two loopback hops
// (client to router, router to shard) are taken out.
func (e *serveEnv) replay(o options, tr *tracer, rep *report, loaded *load) error {
	n := o.replays()
	dir, err := os.MkdirTemp(o.out, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := resultcache.Open(dir, resultCacheBytes, 0)
	if err != nil {
		return err
	}
	defer scratch.Close()
	direct := &http.Client{Transport: e.fleet.transport}
	ctx := context.Background()
	var handler, viaHTTP, viaRouter, unexplained []float64
	for j := 0; j < n; j++ {
		q := e.sched.request(j)
		root := tr.begin("replay", 0, int64(j))
		id := int64(j)
		t, home := e.traces[q.bench], "http://"+e.placement[q.bench]
		variant := func(level int) request {
			v := q
			if e.mix.pool == 0 {
				v.group.latency = replayLatency + level*n + j
			}
			return v
		}
		var path time.Duration // the layers on the blocking path
		if e.mix.stream {
			sp := tr.begin("trace.decode", root.id, id)
			_, err := decodeAll(e.bodies[q.bench])
			path += sp.end()
			if err != nil {
				return err
			}
		}
		key := resultcache.Key{Kind: "replay", Trace: q.bench, Configs: strconv.Itoa(j), Version: core.KernelVersion, Format: q.format}.String()
		if e.mix.pool > 0 {
			if err := scratch.Put(key, e.pool[e.sched.poolIndex(j)]); err != nil {
				return err
			}
			sp := tr.begin("resultcache.get", root.id, id)
			_, ok := scratch.Get(key)
			path += sp.end()
			if !ok {
				return fmt.Errorf("scratch result cache lost request %d", j)
			}
		} else {
			cfgs, err := q.group.configs()
			if err != nil {
				return err
			}
			sp := tr.begin("core", root.id, id)
			results, err := core.SimulateManyTrace(ctx, cfgs, t)
			path += sp.end()
			if err != nil {
				return err
			}
			sp = tr.begin("metrics.render", root.id, id)
			var body []byte
			if q.format == "text" {
				body = renderText(t, results)
			} else {
				body, err = renderJSON(t, results)
			}
			path += sp.end()
			if err != nil {
				return err
			}
			sp = tr.begin("resultcache.put", root.id, id)
			err = scratch.Put(key, body)
			path += sp.end()
			if err != nil {
				return err
			}
		}

		req, err := variant(0).httpRequest(home, e.mix.stream, e.bodies[q.bench])
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		sp := tr.begin("serve.handler", root.id, id)
		e.fleet.shards[e.placement[q.bench]].srv.ServeHTTP(rec, req)
		handler = append(handler, ms(sp.end()))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.Bytes())
		}

		if req, err = variant(1).httpRequest(home, e.mix.stream, e.bodies[q.bench]); err != nil {
			return err
		}
		sp = tr.begin("serve.http", root.id, id)
		_, err = sendOK(direct, req)
		viaHTTP = append(viaHTTP, ms(sp.end()))
		if err != nil {
			return err
		}

		sp = tr.begin("serve.healthz", root.id, id)
		err = healthz(direct, home)
		hop := sp.end()
		if err != nil {
			return err
		}

		if req, err = variant(2).httpRequest(e.fleet.routerURL, e.mix.stream, e.bodies[q.bench]); err != nil {
			return err
		}
		sp = tr.begin("cluster", root.id, id)
		_, err = sendOK(e.client, req)
		d := sp.end()
		if err != nil {
			return err
		}
		viaRouter = append(viaRouter, ms(d))
		unexplained = append(unexplained, ms(d-path-2*hop))
		root.end()
	}
	rep.layers["serve.handler_ms"] = median(handler)
	rep.layers["serve.http_ms"] = median(viaHTTP)
	rep.layers["cluster.hop_ms"] = median(viaRouter) - median(viaHTTP)
	rep.layers["serve.wait_ms"] = loaded.p50 - median(viaRouter)
	rep.layers["ledger.unexplained_ms"] = median(unexplained)
	rep.notef("replay of %d requests, unloaded: handler %.3f ms, direct to shard %.3f ms, via router %.3f ms; unexplained by the layers %.3f ms",
		n, median(handler), median(viaHTTP), median(viaRouter), median(unexplained))
	return nil
}
