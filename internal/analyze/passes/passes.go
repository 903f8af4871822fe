// Package passes is the registry of softcache's own analyzers — the
// single list every driver (cmd/softcache-analyze standalone, the
// go vet -vettool path, and the suite tests) runs, so "the suite" means
// the same thing everywhere.
package passes

import (
	"fmt"

	"softcache/internal/analyze"
	"softcache/internal/analyze/cliexit"
	"softcache/internal/analyze/lockguard"
	"softcache/internal/analyze/poolescape"
)

// All returns the full suite in a fresh slice, in stable name order.
func All() []*analyze.Analyzer {
	return []*analyze.Analyzer{
		cliexit.Analyzer,
		lockguard.Analyzer,
		poolescape.Analyzer,
	}
}

// Select resolves analyzer names to the suite subset, preserving the
// registry order. An unknown name is an operational error.
func Select(names []string) ([]*analyze.Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*analyze.Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("unknown analyzer %q", n)
	}
	return out, nil
}
