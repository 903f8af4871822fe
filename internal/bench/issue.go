package bench

import (
	"fmt"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "issue",
		Title: "Issue-rate sensitivity (§3.1): AMAT advantage vs inter-reference gap",
		Run:   runIssueRate,
	})
}

// runIssueRate replays the benchmark traces with *constant* issue gaps
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

	// Run b*len(gaps)+i is benchmark b at gaps[i], replayed from the
	// trace the context holds.
	names := workloads.Benchmarks()
	rowNames := repeatEach(names, len(gaps))
	runs := make([][]core.Result, len(rowNames))
	err := ctx.eachWorkload(rowNames, func(rc *Context, i int) (err error) {
		runs[i], err = rc.simulateGap(rowNames[i], gaps[i%len(gaps)], core.Standard(), core.Soft())
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

// simulateGap runs cfgs in one fused pass over the named workload's trace
// replayed at a constant issue gap (gapReader): the trace tracegen would
// generate with timing.Constant(gap), without generating it again.
func (c *Context) simulateGap(name string, gap int, cfgs ...core.Config) ([]core.Result, error) {
	t, err := c.Trace(name)
	if err != nil {
		return nil, err
	}
	return core.Run(c.context(), core.Job{Configs: c.checked(cfgs)}, &gapReader{BatchReader: t.Reader(), gap: uint8(gap)})
}

// gapReader replays a trace with every record's gap set to gap, except
// the first record's, which stays 0. That is exactly the trace tracegen
// generates with a constant gap model: the seed feeds only the gap
// sampler, so the addresses, tags and order do not change with it, and
// the generator zeroes the first record's gap whatever the model draws.
type gapReader struct {
	trace.BatchReader
	gap  uint8
	read int // records handed out so far
}

func (r *gapReader) ReadBatch(dst []trace.Record) (int, error) {
	n, err := r.BatchReader.ReadBatch(dst)
	for i := range dst[:n] {
		dst[i].Gap = r.gap
	}
	if r.read == 0 && n > 0 {
		dst[0].Gap = 0
	}
	r.read += n
	return n, err
}
