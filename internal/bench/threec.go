package bench

import (
	"fmt"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/stackdist"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "3c",
		Title: "Three-C miss decomposition (compulsory/capacity/conflict) and what Soft removes",
		Run:   runThreeC,
	})
}

// runThreeC decomposes each benchmark's misses into the classic three Cs
// (via LRU stack distances, Mattson's algorithm) for the standard cache,
// and measures what the software-assisted design removes. It validates the
// paper's repeated claim that "because spatial locality is heavily
// exploited, a major share of cache misses removed are compulsory and
// capacity misses corresponding to vector accesses" (§3.2) — i.e. the
// design is not merely a conflict-miss fix like a victim cache.
func runThreeC(ctx *Context) (*Report, error) {
	r := &Report{ID: "3c", Title: "Three-C Miss Decomposition"}
	std := core.Standard()
	capacityLines := std.CacheSize / std.LineSize

	tbl := metrics.NewTable(
		fmt.Sprintf("Standard-cache misses per 1000 references (%d-line capacity)", capacityLines),
		"benchmark", "compulsory", "capacity", "conflict", "removed by Soft")
	// Each benchmark is three cells: its stack-distance profile and its
	// Standard and Soft answers, so the simulations of Slalom, the longest
	// trace, run beside its profile rather than after it on one worker.
	names := workloads.Benchmarks()
	type row struct {
		profile   stackdist.Profile
		std, soft core.Result
	}
	rows := make([]row, len(names))
	err := ctx.eachWorkload(repeatEach(names, 3), func(rc *Context, i int) error {
		name, r := names[i/3], &rows[i/3]
		var err error
		switch i % 3 {
		case 0:
			var t *trace.Trace
			if t, err = rc.Trace(name); err == nil {
				r.profile = stackdist.Analyze(t, std.LineSize, 4*capacityLines)
			}
		case 1:
			r.std, err = rc.Simulate(name, std)
		case 2:
			r.soft, err = rc.Simulate(name, core.Soft())
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sumRemoved, sumCompCap := 0.0, 0.0
	for i, r := range rows {
		c := r.profile.Classify(capacityLines, r.std.Stats.Misses)
		per := 1000.0 / float64(r.std.Stats.References)
		removed := float64(r.std.Stats.Misses-r.soft.Stats.Misses) * per
		tbl.AddRow(names[i],
			float64(c.Compulsory)*per,
			float64(c.Capacity)*per,
			float64(c.Conflict)*per,
			removed,
		)
		sumRemoved += removed
		sumCompCap += float64(c.Compulsory+c.Capacity) * per
	}
	r.Tables = append(r.Tables, tbl)

	// The removed misses must exceed what a perfect conflict-only fix
	// could deliver on several codes: Soft attacks compulsory (virtual
	// lines) and capacity (pollution control) misses too.
	beyondConflict := 0
	for i := 0; i < tbl.Rows(); i++ {
		if tbl.Value(i, 3) > tbl.Value(i, 2)+1e-9 {
			beyondConflict++
		}
	}
	r.check("Soft removes more misses than a perfect conflict-only fix could, on most codes",
		beyondConflict >= tbl.Rows()/2+1,
		fmt.Sprintf("%d/%d benchmarks", beyondConflict, tbl.Rows()))

	// Compulsory+capacity misses dominate the pool the design draws from.
	r.check("compulsory+capacity misses dominate the standard cache's misses overall",
		sumCompCap > sumRemoved*0.5, "")
	return r, nil
}
