package bench

import (
	"fmt"

	"softcache/internal/core"
	"softcache/internal/metrics"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "11a",
		Title: "Optimal block size for blocked matrix-vector multiply (AMAT)",
		Run:   runFig11a,
	})
	register(Experiment{
		ID:    "11b",
		Title: "Data copying in blocked matrix-matrix multiply vs leading dimension (AMAT)",
		Run:   runFig11b,
	})
}

// fig11aBlocks returns the block-size sweep for the scale (every block must
// divide the blocked-MV problem size).
func fig11aBlocks(s workloads.Scale) []int {
	if s == workloads.ScalePaper {
		return []int{10, 20, 40, 50, 100, 200, 500, 1000}
	}
	return []int{10, 20, 40, 50, 100, 200}
}

// runFig11a reproduces fig. 11a. Expected shape: AMAT as a function of
// block size is U-shaped for both designs, and software control moves the
// optimum towards larger blocks (pollution no longer forces conservative
// blocking) while also lowering the curve.
func runFig11a(ctx *Context) (*Report, error) {
	r := &Report{ID: "11a", Title: "Optimal Block Size for Blocked Algorithms"}
	blocks := fig11aBlocks(ctx.Scale)
	tbl := metrics.NewTable("AMAT (cycles) vs block size", "block", "Standard", "Soft")
	type point struct{ std, soft float64 }
	points := make([]point, len(blocks))
	err := ctx.each(len(blocks), func(rc *Context, i int) error {
		p, err := workloads.BlockedMV(rc.Scale, blocks[i])
		if err != nil {
			return err
		}
		res, err := rc.simulateProgram(p, core.Standard(), core.Soft())
		if err != nil {
			return err
		}
		points[i] = point{res[0].AMAT(), res[1].AMAT()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range blocks {
		tbl.AddRow(fmt.Sprintf("%d", b), points[i].std, points[i].soft)
	}
	r.Tables = append(r.Tables, tbl)

	// Locate each design's optimum.
	bestStd, bestSoft := 0, 0
	for i := range points {
		if points[i].std < points[bestStd].std {
			bestStd = i
		}
		if points[i].soft < points[bestSoft].soft {
			bestSoft = i
		}
	}
	r.check("software control tolerates at least as large a block size",
		blocks[bestSoft] >= blocks[bestStd],
		fmt.Sprintf("optimum %d (Soft) vs %d (Standard)", blocks[bestSoft], blocks[bestStd]))
	r.check("software control lowers AMAT at its optimum",
		points[bestSoft].soft < points[bestStd].std,
		fmt.Sprintf("%.3f vs %.3f", points[bestSoft].soft, points[bestStd].std))
	return r, nil
}

// fig11bLDs is the paper's leading-dimension sweep.
var fig11bLDs = []int{116, 117, 118, 119, 120, 121, 122, 123, 124, 125, 126}

// runFig11b reproduces fig. 11b. Expected shape: without copying, AMAT
// spikes at unlucky leading dimensions (self-interference); copying
// flattens the curve at the cost of the refill traffic; software assistance
// reduces that cost and tames the no-copy spikes.
func runFig11b(ctx *Context) (*Report, error) {
	r := &Report{ID: "11b", Title: "Data Copying (Blocked Matrix-Matrix Multiply)"}
	tbl := metrics.NewTable("AMAT (cycles) vs leading dimension", "LD",
		"NoCopy(stand)", "Copy(stand)", "NoCopy(soft)", "Copy(soft)")
	type runRes struct{ ncS, cS, ncF, cF float64 }
	// Run 2k is leading dimension k without copying, run 2k+1 with it;
	// each yields its (Standard, Soft) AMAT pair.
	runs := make([][2]float64, 2*len(fig11bLDs))
	err := ctx.each(len(runs), func(rc *Context, i int) error {
		p, err := workloads.BlockedMM(rc.Scale, fig11bLDs[i/2], i%2 == 1)
		if err != nil {
			return err
		}
		res, err := rc.simulateProgram(p, core.Standard(), core.Soft())
		if err != nil {
			return err
		}
		runs[i] = [2]float64{res[0].AMAT(), res[1].AMAT()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]runRes, len(fig11bLDs))
	for k, ld := range fig11bLDs {
		noCopy, copying := runs[2*k], runs[2*k+1]
		rows[k] = runRes{ncS: noCopy[0], cS: copying[0], ncF: noCopy[1], cF: copying[1]}
		tbl.AddRow(fmt.Sprintf("%d", ld), rows[k].ncS, rows[k].cS, rows[k].ncF, rows[k].cF)
	}
	r.Tables = append(r.Tables, tbl)

	// Copying flattens the curve: its spread across LDs is smaller than
	// no-copy's under the standard cache.
	spread := func(get func(runRes) float64) float64 {
		lo, hi := rows[0], rows[0]
		for _, v := range rows {
			if get(v) < get(lo) {
				lo = v
			}
			if get(v) > get(hi) {
				hi = v
			}
		}
		return get(hi) - get(lo)
	}
	ncSpread := spread(func(v runRes) float64 { return v.ncS })
	cSpread := spread(func(v runRes) float64 { return v.cS })
	r.check("copying flattens the leading-dimension pathology",
		cSpread < ncSpread, fmt.Sprintf("spread %.3f (copy) vs %.3f (no copy)", cSpread, ncSpread))

	// Software assistance reduces the cost of copying.
	meanCS, meanCF := 0.0, 0.0
	for _, v := range rows {
		meanCS += v.cS
		meanCF += v.cF
	}
	meanCS /= float64(len(rows))
	meanCF /= float64(len(rows))
	r.check("software control reduces the copying variant's AMAT",
		meanCF < meanCS, fmt.Sprintf("mean %.3f vs %.3f", meanCF, meanCS))
	return r, nil
}
