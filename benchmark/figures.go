package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"softcache/internal/bench"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// goldenSeed is the seed the committed test-scale figure CSVs were
// generated with.
const goldenSeed = 1

// minPasses is the fewest timed passes a figures window may give.
const minPasses = 5

// figureSetups is how many set-ups an untraced figures run makes. A
// set-up is a whole pass, about a second, so five give a steady median.
const figureSetups = 5

// pass is one run of every experiment, in paper order, over a fresh
// test-scale context: what a user of softcache-bench -scale test waits
// for, trace generation included.
type pass struct {
	wall    time.Duration
	byID    map[string]time.Duration
	reports []*bench.Report
	errs    []error
}

func runPass(seed uint64, tr *tracer, request int64) pass {
	ids := bench.IDs()
	p := pass{byID: map[string]time.Duration{}, reports: make([]*bench.Report, len(ids)), errs: make([]error, len(ids))}
	ctx := bench.NewContext(workloads.ScaleTest, seed)
	ps := tr.begin("figures.pass", 0, request)
	for k, id := range ids {
		sp := tr.begin("bench."+id, ps.id, request)
		e, err := bench.Get(id)
		if err == nil {
			p.reports[k], p.errs[k] = e.Run(ctx)
		} else {
			p.errs[k] = err
		}
		p.byID[id] = sp.end()
	}
	p.wall = ps.end()
	return p
}

// check counts the pass's experiments as operations and fails each one
// that errored or whose CSV tables, written with bench.WriteCSV into dir,
// differ from want; with want nil it only collects them. It returns the
// pass's tables by file name.
func (p pass) check(rep *report, dir string, want map[string][]byte) map[string][]byte {
	got := map[string][]byte{}
	rep.attempted += len(p.reports)
	for k, id := range bench.IDs() {
		err := p.errs[k]
		if err == nil {
			err = collectCSV(dir, p.reports[k], got, want)
		}
		if err != nil {
			rep.fail("figure %s: %v", id, err)
		}
	}
	for name := range want {
		if got[name] == nil {
			rep.fail("no figure produced %s", name)
		}
	}
	return got
}

// collectCSV writes r's tables into dir, adds them to got and compares
// each with its namesake in want, if want is set.
func collectCSV(dir string, r *bench.Report, got, want map[string][]byte) error {
	files, err := bench.WriteCSV(dir, r)
	if err != nil {
		return err
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		name := filepath.Base(f)
		got[name] = data
		if want != nil && !bytes.Equal(data, want[name]) {
			return fmt.Errorf("%s differs from the expected table", name)
		}
	}
	return nil
}

// readCSVs loads every CSV table of dir by file name.
func readCSVs(dir string) (map[string][]byte, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no CSV tables in %s", dir)
	}
	out := map[string][]byte{}
	for _, f := range files {
		if out[filepath.Base(f)], err = os.ReadFile(f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runFigures regenerates every figure of the paper, pass after pass. Set-up
// is a warm-up pass whose CSV tables become what every later pass must
// reproduce; at the golden seed they must first equal the committed
// test-scale goldens. The window then times passes one after another; a
// pass is one latency sample.
func runFigures(o options, tr *tracer, meter *hostMeter) (*report, error) {
	rep := newReport()
	csvDir, err := os.MkdirTemp(o.out, "figures-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(csvDir)
	var want map[string][]byte
	ref := fmt.Sprintf("the first pass's (the committed ones are for seed %d)", goldenSeed)
	if o.seed == goldenSeed {
		ref = filepath.Join(o.root, "internal", "bench", "testdata", "golden")
		if want, err = readCSVs(ref); err != nil {
			return nil, err
		}
	}
	var setups, scaled []float64
	for r := 0; r < o.setupReps(figureSetups); r++ {
		runtime.GC()
		sp := tr.begin("setup", 0, 0)
		got := runPass(o.seed, nil, 0).check(rep, csvDir, want)
		if want == nil {
			want = got
		}
		d := sp.end().Seconds()
		f, err := meter.measure()
		if err != nil {
			return nil, err
		}
		setups, scaled = append(setups, d), append(scaled, d*f)
	}
	rep.e2e["setup_s"] = median(scaled)
	rep.notef("set-up: warm-up pass, median %.4f s of %d, %.4f s at reference host speed", median(setups), len(setups), median(scaled))

	walls, scaled, _, err := figureWindow(o, nil, meter, rep, csvDir, want)
	if err != nil {
		return nil, err
	}
	if !o.short && len(walls) < minPasses {
		return nil, fmt.Errorf("window gave %d passes, need %d: run longer", len(walls), minPasses)
	}
	rep.e2e["latency_p50_ms"] = median(scaled)
	rep.notef("untraced: %d passes of %d experiments, median %.3f s, %.3f s at reference host speed", len(walls), len(bench.IDs()), median(walls)/1e3, median(scaled)/1e3)

	if o.traced {
		tracedWalls, _, passes, err := figureWindow(o, tr, meter, rep, csvDir, want)
		if err != nil {
			return nil, err
		}
		var unexplained []float64
		for _, id := range bench.IDs() {
			var d []float64
			for _, p := range passes {
				d = append(d, p.byID[id].Seconds())
			}
			rep.layers[benchMetric(id)] = median(d)
		}
		for _, p := range passes {
			in := time.Duration(0)
			for _, d := range p.byID {
				in += d
			}
			unexplained = append(unexplained, ms(p.wall-in))
		}
		rep.layers["ledger.unexplained_ms"] = median(unexplained)
		rep.layers["tracing.overhead_share"] = median(tracedWalls)/median(walls) - 1
		rep.notef("traced: %d passes, median %.3f s", len(tracedWalls), median(tracedWalls)/1e3)
		var traces []*trace.Trace
		var generate time.Duration
		for _, name := range benchmarks {
			g := tr.begin("workloads.generate", 0, 0)
			t, err := workloads.Trace(name, workloads.ScaleTest, o.seed)
			generate += g.end()
			if err != nil {
				return nil, err
			}
			traces = append(traces, t)
		}
		rep.layers["workloads.generate_ms"] = ms(generate)
		if err := measureLayers(traces, o.out, tr, rep); err != nil {
			return nil, err
		}
	}
	rep.notef("checked: no experiment failed, and every pass's %d CSV tables are byte-identical to %s", len(want), ref)
	return rep, nil
}

// figureWindow runs passes until the window has passed, each after a
// garbage collection so that it starts from the heap a fresh process
// would, checks each after its clock has stopped and times the host-speed
// reference after each. It returns the passes' wall times in ms, each also
// scaled by the reference run after it, and, when traced, the passes.
func figureWindow(o options, tr *tracer, meter *hostMeter, rep *report, csvDir string, want map[string][]byte) (walls, scaled []float64, passes []pass, err error) {
	start := time.Now()
	for k := int64(1); len(walls) == 0 || time.Since(start) < o.duration(); k++ {
		runtime.GC()
		p := runPass(o.seed, tr, k)
		p.check(rep, csvDir, want)
		f, err := meter.measure()
		if err != nil {
			return nil, nil, nil, err
		}
		walls, scaled = append(walls, ms(p.wall)), append(scaled, ms(p.wall)*f)
		if tr != nil {
			p.reports = nil
			passes = append(passes, p)
		}
	}
	return walls, scaled, passes, nil
}
