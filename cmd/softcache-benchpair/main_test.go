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
		var errb strings.Builder
		if code := run(args, io.Discard, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.HasPrefix(errb.String(), "softcache-benchpair: ") {
			t.Errorf("%v: stderr not prefixed: %q", args, errb.String())
		}
	}
}

// A row only one side reports (renamed or added by the change) is printed
// as absent on the other side: no wins, no ratio, never a 0 that reads as
// a lower-is-better win.
func TestSummarizeOneSidedRows(t *testing.T) {
	base := []map[string]float64{{"kernel/old": 10, "shared": 5}, {"kernel/old": 12, "shared": 6}}
	change := []map[string]float64{{"kernel/new": 9, "shared": 4}, {"kernel/new": 11, "shared": 7}}
	rows := map[string][]string{}
	for _, l := range strings.Split(strings.TrimSpace(summarize(base, change, nil)), "\n")[1:] {
		f := strings.Fields(l)
		rows[f[0]] = f
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows (the union of both sides), got %v", rows)
	}
	old, renamed, shared := strings.Join(rows["kernel/old"], " "), strings.Join(rows["kernel/new"], " "), strings.Join(rows["shared"], " ")
	if !strings.HasPrefix(old, "kernel/old 11 [10.5, 11.5] absent - -") {
		t.Errorf("base-only row %q", old)
	}
	if !strings.HasPrefix(renamed, "kernel/new absent 10 [9.5, 10.5] - -") {
		t.Errorf("change-only row %q", renamed)
	}
	if !strings.HasSuffix(shared, " 1/2 1.000") {
		t.Errorf("shared row %q", shared)
	}
}

func TestParsePerfReadsEveryRow(t *testing.T) {
	report := `{"schema":"softcache-perf/v5","quick":true,"rows":[
		{"name":"kernel/MV/test/vl64-bb1","layer":"kernel","ns_per_record":13.5,"allocs_per_op":28},
		{"name":"decode/MV/test/sctz","layer":"decode","ns_per_record":4.25,"bytes":1000}]}`
	m, err := parsePerf([]byte(report))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["kernel/MV/test/vl64-bb1"] != 13.5 || m["decode/MV/test/sctz"] != 4.25 {
		t.Errorf("parsed %v", m)
	}
	for _, bad := range []string{"not json", `{"schema":"softcache-perf/v5","rows":[]}`} {
		if _, err := parsePerf([]byte(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}
