package bench

import (
	"fmt"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/timing"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "issue",
		Title: "Issue-rate sensitivity (§3.1): AMAT advantage vs inter-reference gap",
		Run:   runIssueRate,
	})
}

// runIssueRate regenerates the benchmark traces with *constant* issue gaps
// of 1-8 cycles (instead of the fig. 4b distribution) and measures the
// Soft design's AMAT advantage. The paper notes a cache design is
// sensitive to the processor request issue rate: at very high issue rates
// (1-cycle gaps, superscalar-like) the 2-cycle swap locks of the
// bounce-back cache collide with following accesses more often, shaving
// part of the gain; slower issue hides them entirely.
func runIssueRate(ctx *Context) (*Report, error) {
	r := &Report{ID: "issue", Title: "Issue-Rate Sensitivity"}
	gaps := []int{1, 2, 4, 8}
	cols := make([]string, len(gaps))
	for i, g := range gaps {
		cols[i] = fmt.Sprintf("gap=%d", g)
	}
	tbl := metrics.NewTable("AMAT(Standard) - AMAT(Soft) at constant issue gaps", "benchmark", cols...)

	// Run b*len(gaps)+i is benchmark b at gaps[i]. Every run builds its
	// own program: generation finalises and analyses it, so concurrent
	// runs must not share one.
	names := workloads.Benchmarks()
	runs := make([][]core.Result, len(names)*len(gaps))
	err := ctx.each(len(runs), func(rc *Context, i int) error {
		p, err := workloads.BuildProgram(names[i/len(gaps)], rc.Scale)
		if err != nil {
			return err
		}
		runs[i], err = rc.simulateProgram(p, timing.Constant(gaps[i%len(gaps)]), core.Standard(), core.Soft())
		return err
	})
	if err != nil {
		return nil, err
	}
	lockStallShare := 0.0
	for b, name := range names {
		row := make([]float64, len(gaps))
		for i := range gaps {
			std, soft := runs[b*len(gaps)+i][0], runs[b*len(gaps)+i][1]
			row[i] = std.AMAT() - soft.AMAT()
			if i == 0 {
				lockStallShare += float64(soft.Stats.LockStallCycles) / float64(soft.Stats.CostCycles)
			}
		}
		tbl.AddRow(name, row...)
	}
	lockStallShare /= float64(tbl.Rows())
	r.Tables = append(r.Tables, tbl)

	// The advantage must persist at every issue rate...
	minAdvantage := 1e9
	for i := 0; i < tbl.Rows(); i++ {
		for c := range gaps {
			if v := tbl.Value(i, c); v < minAdvantage {
				minAdvantage = v
			}
		}
	}
	r.check("software assistance keeps its advantage at every issue rate",
		minAdvantage > -1e-9, fmt.Sprintf("min advantage %.3f", minAdvantage))
	// ...and the swap-lock interference at gap=1 stays a small share of
	// the access time (the §2.2 "hiding the bounce-back process" claim).
	r.check("swap-lock stalls are a small share of access time even at 1-cycle gaps",
		lockStallShare < 0.05, fmt.Sprintf("mean share %.3f", lockStallShare))
	return r, nil
}
