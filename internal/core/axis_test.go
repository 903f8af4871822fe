package core

import (
	"reflect"
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
