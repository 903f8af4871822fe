package main

import (
	"io"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{5, 1, 4, 2, 3})
	if got != [3]float64{2, 3, 4} {
		t.Errorf("quartiles = %v, want [2 3 4]", got)
	}
	got = quartiles([]float64{4, 1, 3, 2})
	if got != [3]float64{1.75, 2.5, 3.25} {
		t.Errorf("quartiles = %v, want [1.75 2.5 3.25]", got)
	}
	if got := quartiles([]float64{7}); got != [3]float64{7, 7, 7} {
		t.Errorf("quartiles of one value = %v", got)
	}
}

func TestParseResultReadsLastLine(t *testing.T) {
	out := "workload figures, seed 1, 20 s, untraced\n" +
		`{"correct":true,"attempted":12,"failed":1,"metrics":{"latency_p50_ms":{"value":231.5,"unit":"ms"}}}` + "\n"
	m, err := parseResult([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if m["latency_p50_ms"] != 231.5 || m["attempted"] != 12 || m["failed"] != 1 {
		t.Errorf("parsed %v", m)
	}
	if _, err := parseResult([]byte("no json here\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

func TestSummarizeCountsWinsByDirection(t *testing.T) {
	base := []map[string]float64{{"lat": 10, "rps": 100}, {"lat": 12, "rps": 90}, {"lat": 11, "rps": 95}}
	change := []map[string]float64{{"lat": 9, "rps": 99}, {"lat": 13, "rps": 95}, {"lat": 10, "rps": 96}}
	out := summarize(base, change, map[string]bool{"rps": true})
	lines := strings.Split(out, "\n")
	var lat, rps string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "lat "):
			lat = l
		case strings.HasPrefix(l, "rps "):
			rps = l
		}
	}
	// lat is lower-is-better: the change wins pairs 1 and 3; medians 10/11.
	if !strings.Contains(lat, " 2/3 ") || !strings.HasSuffix(lat, "0.909") {
		t.Errorf("lat row %q", lat)
	}
	// rps is higher-is-better: the change wins pairs 2 and 3.
	if !strings.Contains(rps, " 2/3 ") {
		t.Errorf("rps row %q", rps)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-pairs", "0"}, {"-seconds", "-1"}, {"extra"}, {"-nope"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
