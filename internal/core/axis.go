package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Override is one configuration parameter a front door may set: a sweep
// axis (softcache-sweep, /v1/sweep), a softcache-sim flag or a ConfigSpec
// field (/v1/simulate, /v1/simulate/trace). A value outside its inclusive
// range is the caller's error at every door. The ranges are generous
// multiples of the paper's design space that bound what one request can
// make a daemon allocate; Validate then applies the rules between fields.
type Override struct {
	Key      string // axis key and softcache-sim flag name
	Unit     string
	Min, Max int
	Of       func(Config) int // cfg's value, in Unit
	set      func(Config, int) Config
}

// overrides is the only definition of the override keys and ranges.
// Lookups walk it: no map lookup and no allocation on the request path.
var overrides = [...]Override{
	{"cache", "KiB", 1, 1 << 16, func(c Config) int { return c.CacheSize >> 10 },
		func(c Config, v int) Config { c.CacheSize = v << 10; return c }},
	{"line", "bytes", 1, 1 << 12, func(c Config) int { return c.LineSize },
		func(c Config, v int) Config { c.LineSize = v; return c }},
	{"vline", "bytes; 0 disables", 0, 1 << 16, func(c Config) int { return c.VirtualLineSize },
		func(c Config, v int) Config { c.VirtualLineSize = v; return c }},
	{"latency", "cycles", 0, 1 << 20, func(c Config) int { return c.LatencyCycles },
		func(c Config, v int) Config { c.LatencyCycles = v; return c }},
	{"assoc", "ways", 1, 1 << 10, func(c Config) int { return c.Assoc },
		func(c Config, v int) Config { c.Assoc = v; return c }},
	{"bb", "bounce-back lines", 0, 1 << 10, func(c Config) int { return c.BounceBackLines },
		func(c Config, v int) Config { c.BounceBackLines = v; return c }},
	{"sbuf", "stream buffers", 0, 64, func(c Config) int { return c.StreamBuffers },
		func(c Config, v int) Config { c.StreamBuffers = v; return c }},
}

// Overrides returns the override table in its documented order.
func Overrides() []Override { return append([]Override(nil), overrides[:]...) }

// LookupOverride returns the table entry for key.
func LookupOverride(key string) (Override, bool) {
	for _, o := range overrides {
		if o.Key == key {
			return o, true
		}
	}
	return Override{}, false
}

// ApplyAxis returns cfg with the override key set to v, or an error when
// the key is unknown or v is out of its range.
func ApplyAxis(cfg Config, key string, v int) (Config, error) {
	o, ok := LookupOverride(key)
	if !ok {
		var keys []string
		for _, o := range overrides {
			keys = append(keys, o.Key)
		}
		return cfg, fmt.Errorf("core: unknown override %q (want one of %s)", key, strings.Join(keys, ", "))
	}
	if v < o.Min || v > o.Max {
		return cfg, fmt.Errorf("core: %s=%d out of range [%d, %d] (%s)", key, v, o.Min, o.Max, o.Unit)
	}
	return o.set(cfg, v), nil
}

// Axis is one swept override with its value list, the unit of
// design-space exploration shared by softcache-sweep and the
// softcache-served /v1/sweep endpoint.
type Axis struct {
	Key    string
	Values []int
}

// ParseAxis parses "key=v1,v2,v3" and checks the key and every value
// against the override table. Duplicate values are rejected (they would
// collide as sweep cells).
func ParseAxis(s string) (Axis, error) {
	key, list, ok := strings.Cut(s, "=")
	if !ok || key == "" || list == "" {
		return Axis{}, fmt.Errorf("core: axis %q must be key=v1,v2,...", s)
	}
	a := Axis{Key: key}
	seen := make(map[int]bool)
	for _, v := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return Axis{}, fmt.Errorf("core: axis %q: %v", s, err)
		}
		if _, err := ApplyAxis(Config{}, key, n); err != nil {
			return Axis{}, err
		}
		if seen[n] {
			return Axis{}, fmt.Errorf("core: axis %q: duplicate value %d", s, n)
		}
		seen[n] = true
		a.Values = append(a.Values, n)
	}
	return a, nil
}

// Grid builds the configuration matrix of a sweep: one row per y value,
// each row base with the y value applied and then every x value in turn.
// A y axis with an empty Key is a one-dimensional sweep: a single row of
// base under x.
func Grid(base Config, x, y Axis) ([][]Config, error) {
	if y.Key == "" {
		y.Values = []int{0}
	}
	var err error
	rows := make([][]Config, len(y.Values))
	for i, yv := range y.Values {
		rowBase := base
		if y.Key != "" {
			if rowBase, err = ApplyAxis(base, y.Key, yv); err != nil {
				return nil, err
			}
		}
		rows[i] = make([]Config, len(x.Values))
		for j, xv := range x.Values {
			if rows[i][j], err = ApplyAxis(rowBase, x.Key, xv); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// MetricOf extracts the named scalar metric from a result: amat, miss or
// traffic (words fetched per reference).
func MetricOf(name string, r Result) (float64, error) {
	switch name {
	case "amat":
		return r.AMAT(), nil
	case "miss":
		return r.MissRatio(), nil
	case "traffic":
		return r.Stats.WordsPerReference(), nil
	default:
		return 0, fmt.Errorf("core: unknown metric %q (want amat, miss or traffic)", name)
	}
}
