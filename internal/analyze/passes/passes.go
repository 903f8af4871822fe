// Package passes is the registry of softcache's own analyzers: the one
// list cmd/softcache-analyze runs, whole, under go vet -vettool.
package passes

import (
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
