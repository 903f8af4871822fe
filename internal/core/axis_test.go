package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestGrid pins the sweep matrix layout shared by softcache-sweep and the
// /v1/sweep endpoint: rows follow y, columns follow x, and y is applied
// before x.
func TestGrid(t *testing.T) {
	cell := func(cacheKB, latency int) Config {
		c := Soft()
		c.CacheSize = cacheKB << 10
		c.LatencyCycles = latency
		return c
	}
	lat := Soft().LatencyCycles
	withBB := Standard()
	withBB.BounceBackLines = 4
	cases := []struct {
		name    string
		base    Config
		x, y    Axis
		want    [][]Config
		wantErr bool
	}{
		{
			name: "one dimension",
			base: Soft(),
			x:    Axis{Key: "cache", Values: []int{4, 8}},
			want: [][]Config{{cell(4, lat), cell(8, lat)}},
		},
		{
			name: "y rows, x columns",
			base: Soft(),
			x:    Axis{Key: "cache", Values: []int{4, 8, 16}},
			y:    Axis{Key: "latency", Values: []int{5, 10}},
			want: [][]Config{
				{cell(4, 5), cell(8, 5), cell(16, 5)},
				{cell(4, 10), cell(8, 10), cell(16, 10)},
			},
		},
		{
			name: "x applied after y",
			base: Soft(),
			x:    Axis{Key: "latency", Values: []int{7}},
			y:    Axis{Key: "cache", Values: []int{4}},
			want: [][]Config{{cell(4, 7)}},
		},
		{
			name: "bb adds a bounce-back cache",
			base: Standard(),
			x:    Axis{Key: "bb", Values: []int{4}},
			want: [][]Config{{withBB}},
		},
		{name: "unknown x", base: Soft(), x: Axis{Key: "zz", Values: []int{1}}, wantErr: true},
		{
			name:    "unknown y",
			base:    Soft(),
			x:       Axis{Key: "cache", Values: []int{4}},
			y:       Axis{Key: "zz", Values: []int{1}},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		got, err := Grid(tc.base, tc.x, tc.y)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: no error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestOverrideTable pins the override table: the keys every front door
// accepts and their inclusive ranges. The five keys the daemon bounded
// before the table existed keep those bounds, so no request it accepted is
// refused now.
func TestOverrideTable(t *testing.T) {
	want := []struct {
		key      string
		min, max int
	}{
		{"cache", 1, 65536},
		{"line", 1, 4096},
		{"vline", 0, 65536},
		{"latency", 0, 1 << 20},
		{"assoc", 1, 1024},
		{"bb", 0, 1024},
		{"sbuf", 0, 64},
	}
	got := Overrides()
	if len(got) != len(want) {
		t.Fatalf("%d overrides, want %d", len(got), len(want))
	}
	for i, w := range want {
		o := got[i]
		if o.Key != w.key || o.Min != w.min || o.Max != w.max {
			t.Errorf("override %d = %s [%d, %d], want %s [%d, %d]", i, o.Key, o.Min, o.Max, w.key, w.min, w.max)
		}
		for _, v := range []int{o.Min - 1, o.Max + 1} {
			if _, err := ApplyAxis(Soft(), o.Key, v); err == nil {
				t.Errorf("ApplyAxis(%s=%d) accepted an out-of-range value", o.Key, v)
			}
			if _, err := ParseAxis(fmt.Sprintf("%s=%d", o.Key, v)); err == nil {
				t.Errorf("ParseAxis(%s=%d) accepted an out-of-range value", o.Key, v)
			}
		}
		for _, v := range []int{o.Min, o.Max} {
			cfg, err := ApplyAxis(Soft(), o.Key, v)
			if err != nil {
				t.Errorf("ApplyAxis(%s=%d): %v", o.Key, v, err)
			}
			if got := o.Of(cfg); got != v {
				t.Errorf("%s: set %d, read back %d", o.Key, v, got)
			}
		}
	}
	if _, err := ApplyAxis(Soft(), "zz", 1); err == nil || !strings.Contains(err.Error(), "cache, line, vline, latency, assoc, bb, sbuf") {
		t.Errorf("unknown key: %v", err)
	}
}

// TestNamedConfigsInsideOverrides: every named design point lies inside
// the table's ranges, so a front door that sets nothing builds a config
// the table would accept.
func TestNamedConfigsInsideOverrides(t *testing.T) {
	for _, name := range ConfigNames() {
		cfg, _ := ConfigByName(name)
		for _, o := range Overrides() {
			if v := o.Of(cfg); v < o.Min || v > o.Max {
				t.Errorf("%s: %s=%d outside [%d, %d]", name, o.Key, v, o.Min, o.Max)
			}
		}
	}
}

// TestApplyAxisAllocatesNothing: the daemon validates every request's
// overrides through the table, so a lookup and a set must not allocate.
func TestApplyAxisAllocatesNothing(t *testing.T) {
	cfg := Soft()
	allocs := testing.AllocsPerRun(100, func() {
		for _, o := range overrides {
			var err error
			if cfg, err = ApplyAxis(cfg, o.Key, o.Max); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ApplyAxis allocates %.1f times per table walk, want 0", allocs)
	}
}

// TestServeDocsListOverrides keeps docs/SERVE.md's request-limits table
// equal to the override table it describes.
func TestServeDocsListOverrides(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range Overrides() {
		row := fmt.Sprintf("| `%s` | %d | %d | %s |", o.Key, o.Min, o.Max, o.Unit)
		if !strings.Contains(string(doc), row) {
			t.Errorf("docs/SERVE.md lacks the row %q", row)
		}
	}
}
