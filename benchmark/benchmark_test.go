package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload with half-second windows, traced, and
// checks that it answers correctly and emits every metric BENCHMARK.json
// names, with its unit.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	if len(bf.EndToEnd) != len(e2eUnits) || len(bf.PerLayer) != len(layerUnits()) {
		t.Errorf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, benchmark emits %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(e2eUnits), len(layerUnits()))
	}
	for _, name := range workloadNames() {
		o := options{seed: 1, seconds: 0.5, traced: true, short: true, root: "..", out: t.TempDir()}
		rep, _, err := runWorkload(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, rep.failed, rep.attempted, rep.lines)
		}
		e2e, err := withUnits(rep.e2e, e2eUnits, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		layers, err := rep.result(true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range bf.EndToEnd {
			if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", name, m.Name, got, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			if got, ok := layers.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v, want unit %s", name, m.Name, got, m.Unit)
			}
		}
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	for _, m := range mixes {
		a, b, c := newSchedule(m, 7), newSchedule(m, 7), newSchedule(m, 8)
		var ra, rb, rc []request
		for i := 0; i < 300; i++ {
			ra, rb, rc = append(ra, a.request(i)), append(rb, b.request(i)), append(rc, c.request(i))
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: seed 7 gave two different schedules", m.name)
		}
		if reflect.DeepEqual(ra, rc) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", m.name)
		}
	}
}

// TestUniqueRequests checks that no (benchmark, config group) repeats and
// that every block asks, per benchmark, for each design once first and
// once second.
func TestUniqueRequests(t *testing.T) {
	s := newSchedule(mixes[0], 3)
	type slot struct {
		bench, design string
		pos           int
	}
	seen := map[request]bool{}
	for b := 0; b < 12; b++ {
		block := map[slot]bool{}
		for i := b * blockSize(); i < (b+1)*blockSize(); i++ {
			q := s.unique(i)
			q.format = ""
			if seen[q] {
				t.Fatalf("request %d repeats %v", i, q)
			}
			seen[q] = true
			if q.group.names[0] == q.group.names[1] || q.group.latency >= reservedLatency {
				t.Fatalf("request %d asks for %v", i, q.group)
			}
			for pos, d := range q.group.names {
				block[slot{q.bench, d, pos}] = true
			}
		}
		if len(block) != 2*blockSize() {
			t.Fatalf("block %d fills %d of %d (benchmark, design, position) slots", b, len(block), 2*blockSize())
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i)
		}
		return v
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Error("p99 of 999 samples (9 beyond it) was accepted")
	}
	if v, err := percentile(samples(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(samples(99), 90); err == nil {
		t.Error("p90 of 99 samples was accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestPlacementIsStable starts the fleet twice: the shards are reached by
// fixed names, so the ring puts every benchmark's trace on the same
// shard both times.
func TestPlacementIsStable(t *testing.T) {
	o := options{seed: 1, seconds: 1, short: true, root: "..", out: t.TempDir()}
	var placements []map[string]string
	for k := 0; k < 2; k++ {
		e, _, err := setupServe(mixes[0], o, nil)
		if err != nil {
			t.Fatal(err)
		}
		placements = append(placements, e.placement)
		e.close()
	}
	if !reflect.DeepEqual(placements[0], placements[1]) {
		t.Errorf("placement changed between fleet starts:\n%v\n%v", placements[0], placements[1])
	}
	for name, s := range placements[0] {
		if !slices.Contains(shardNames, s) {
			t.Errorf("%s placed on %q", name, s)
		}
	}
}
