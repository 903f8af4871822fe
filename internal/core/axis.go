package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis is one swept configuration parameter with its value list, the unit
// of design-space exploration shared by softcache-sweep and the
// softcache-served /v1/sweep endpoint. The recognised keys are: cache
// (KiB), line (bytes), vline (bytes; 0 disables), latency (cycles), assoc
// (ways), bb (bounce-back lines), sbuf (stream buffers).
type Axis struct {
	Key    string
	Values []int
}

// ParseAxis parses "key=v1,v2,v3" and validates the key and every value:
// structural parameters (cache, line, assoc) must be positive, optional
// features (vline, latency, bb, sbuf) non-negative, and duplicate values
// are rejected (they would collide as sweep cells).
func ParseAxis(s string) (Axis, error) {
	key, list, ok := strings.Cut(s, "=")
	if !ok || key == "" || list == "" {
		return Axis{}, fmt.Errorf("core: axis %q must be key=v1,v2,...", s)
	}
	var a Axis
	a.Key = key
	seen := make(map[int]bool)
	for _, v := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return Axis{}, fmt.Errorf("core: axis %q: %v", s, err)
		}
		if err := checkAxisValue(key, n); err != nil {
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

// checkAxisValue rejects values the simulator would misconfigure on.
func checkAxisValue(key string, v int) error {
	switch key {
	case "cache", "line", "assoc":
		if v <= 0 {
			return fmt.Errorf("core: axis %s: value %d must be positive", key, v)
		}
	case "latency", "vline", "bb", "sbuf":
		if v < 0 {
			return fmt.Errorf("core: axis %s: value %d must be non-negative", key, v)
		}
	default:
		return fmt.Errorf("core: unknown axis %q (want cache, line, vline, latency, assoc, bb or sbuf)", key)
	}
	return nil
}

// ApplyAxis returns cfg with the swept parameter set to v.
func ApplyAxis(cfg Config, key string, v int) (Config, error) {
	switch key {
	case "cache":
		cfg.CacheSize = v << 10
	case "line":
		cfg.LineSize = v
	case "vline":
		cfg.VirtualLineSize = v
	case "latency":
		cfg.LatencyCycles = v
	case "assoc":
		cfg.Assoc = v
	case "bb":
		cfg.BounceBackLines = v
	case "sbuf":
		cfg.StreamBuffers = v
	default:
		return cfg, fmt.Errorf("core: unknown axis %q (want cache, line, vline, latency, assoc, bb or sbuf)", key)
	}
	return cfg, nil
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
