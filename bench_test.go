// Package softcache_test hosts the repository-level benchmark harness: one
// testing.B target per figure of the paper (BenchmarkFig01a …
// BenchmarkFig12, BenchmarkAblations, BenchmarkTagAudit) plus
// micro-benchmarks of the simulator and trace generator. Kernel, fused and
// decode throughput are measured and gated by cmd/softcache-perf instead
// (docs/PERF.md).
//
// The figure benchmarks run at test scale by default so `go test -bench=.`
// stays fast; set SOFTCACHE_BENCH_SCALE=paper to regenerate the figures at
// the paper's workload sizes (cmd/softcache-bench does the same with
// readable output and shape checks).
package softcache_test

import (
	"context"
	"os"
	"testing"

	"softcache/internal/bench"
	"softcache/internal/core"
	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

func benchScale() workloads.Scale {
	if os.Getenv("SOFTCACHE_BENCH_SCALE") == "paper" {
		return workloads.ScalePaper
	}
	return workloads.ScaleTest
}

// runFigure executes the experiment b.N times, each over a fresh context:
// a context keeps every answer it simulated, so a shared one would time
// lookups from the second iteration on. The named workload traces are
// generated with the clock stopped, so iterations measure simulation, not
// generation.
func runFigure(b *testing.B, id string) {
	e, err := bench.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := bench.NewContext(benchScale(), 1)
		for _, name := range workloads.Names() {
			if _, err := ctx.Trace(name); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		r, err := e.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

func BenchmarkFig01a(b *testing.B)    { runFigure(b, "1a") }
func BenchmarkFig01b(b *testing.B)    { runFigure(b, "1b") }
func BenchmarkFig03a(b *testing.B)    { runFigure(b, "3a") }
func BenchmarkFig03b(b *testing.B)    { runFigure(b, "3b") }
func BenchmarkThreeC(b *testing.B)    { runFigure(b, "3c") }
func BenchmarkFig04a(b *testing.B)    { runFigure(b, "4a") }
func BenchmarkFig04b(b *testing.B)    { runFigure(b, "4b") }
func BenchmarkFig06a(b *testing.B)    { runFigure(b, "6a") }
func BenchmarkFig06b(b *testing.B)    { runFigure(b, "6b") }
func BenchmarkFig07a(b *testing.B)    { runFigure(b, "7a") }
func BenchmarkFig07b(b *testing.B)    { runFigure(b, "7b") }
func BenchmarkFig08a(b *testing.B)    { runFigure(b, "8a") }
func BenchmarkFig08b(b *testing.B)    { runFigure(b, "8b") }
func BenchmarkFig09a(b *testing.B)    { runFigure(b, "9a") }
func BenchmarkFig09b(b *testing.B)    { runFigure(b, "9b") }
func BenchmarkFig10a(b *testing.B)    { runFigure(b, "10a") }
func BenchmarkFig10b(b *testing.B)    { runFigure(b, "10b") }
func BenchmarkFig11a(b *testing.B)    { runFigure(b, "11a") }
func BenchmarkFig11b(b *testing.B)    { runFigure(b, "11b") }
func BenchmarkFig12(b *testing.B)     { runFigure(b, "12") }
func BenchmarkAblations(b *testing.B) { runFigure(b, "ablations") }
func BenchmarkFig12SW(b *testing.B)   { runFigure(b, "12sw") }
func BenchmarkRelated(b *testing.B)   { runFigure(b, "related") }
func BenchmarkIssueRate(b *testing.B) { runFigure(b, "issue") }
func BenchmarkSummary(b *testing.B)   { runFigure(b, "summary") }
func BenchmarkTagAudit(b *testing.B)  { runFigure(b, "tag-audit") }

// --- micro-benchmarks ----------------------------------------------------

// benchmarkSimulator measures per-reference simulation cost, in
// ns/record, and reports the resulting AMAT as a custom metric, so
// regressions in either speed or model behaviour are visible.
func benchmarkSimulator(b *testing.B, cfg core.Config) {
	tr, err := workloads.Trace("MV", benchScale(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var amat float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(context.Background(), core.Job{Configs: []core.Config{cfg}}, tr.Reader())
		if err != nil {
			b.Fatal(err)
		}
		amat = res[0].AMAT()
	}
	b.ReportMetric(amat, "AMAT-cycles")
	b.ReportMetric(float64(tr.Len()), "refs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/record")
}

func BenchmarkSimulateStandard(b *testing.B) { benchmarkSimulator(b, core.Standard()) }
func BenchmarkSimulateSoft(b *testing.B)     { benchmarkSimulator(b, core.Soft()) }
func BenchmarkSimulateSoftPrefetch(b *testing.B) {
	benchmarkSimulator(b, core.WithPrefetch(core.Soft(), true))
}

// BenchmarkSimulateSetAssoc times a set-associative cache, the fig. 9b
// simplified soft design at two ways, whose hits AccessAll batches like
// the direct-mapped ones.
func BenchmarkSimulateSetAssoc(b *testing.B) { benchmarkSimulator(b, core.SimplifiedSoftAssoc(2)) }

// BenchmarkSimulateHits times the direct-mapped hit loop alone: an
// all-hit trace (a 4 KB sweep in 8-byte words, one store in four, gap 1)
// replayed through AccessAll on the paper's standard cache after one
// warming pass, reported in ns/record.
func BenchmarkSimulateHits(b *testing.B) {
	recs := make([]trace.Record, 1<<14)
	for i := range recs {
		recs[i] = trace.Record{Addr: uint64(i*8) % 4096, Gap: 1, Size: 8, Write: i%4 == 3}
	}
	sim, err := core.NewSimulator(core.Standard())
	if err != nil {
		b.Fatal(err)
	}
	sim.AccessAll(recs)
	warm := sim.Stats().Misses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.AccessAll(recs)
	}
	b.StopTimer()
	if st := sim.Stats(); st.Misses != warm {
		b.Fatalf("%d misses after the warming pass, want 0", st.Misses-warm)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

// BenchmarkSimulateMisses times the general path alone: a sweep of one
// word per line over 64 KB (eight times the paper's soft cache, one store
// in four, gap 1) replayed through AccessAll on Soft after one warming
// pass, so every record misses the main cache and the bounce-back cache
// and its fill displaces a line through the bounce-back cache, reported
// in ns/record.
func BenchmarkSimulateMisses(b *testing.B) {
	recs := make([]trace.Record, 64<<10/core.DefaultLineSize)
	for i := range recs {
		recs[i] = trace.Record{Addr: uint64(i * core.DefaultLineSize), Gap: 1, Size: 8, Write: i%4 == 3}
	}
	sim, err := core.NewSimulator(core.Soft())
	if err != nil {
		b.Fatal(err)
	}
	sim.AccessAll(recs)
	warm := sim.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.AccessAll(recs)
	}
	b.StopTimer()
	st := sim.Stats()
	if misses := st.Misses - warm.Misses; misses != uint64(b.N*len(recs)) || st.BounceBackHits != 0 {
		b.Fatalf("%d misses and %d bounce-back hits over %d records, want every record to miss both caches",
			misses, st.BounceBackHits, b.N*len(recs))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

// BenchmarkTraceGeneration times trace generation per variant class the
// figures generate: every named workload, one 12sw prefetch variant, one
// 11b blocked matrix-matrix variant and one 11a blocked matrix-vector
// variant. Each is timed twice: materialised by tracegen.Generate, which
// runs the counting pass to size the trace, and as stream/, a
// tracegen.NewReader drained by trace.Each, which is how the figures
// feed their variants to the simulator, per-stream setup included.
// ns/record makes the classes comparable across trace lengths.
func BenchmarkTraceGeneration(b *testing.B) {
	type variant struct {
		name  string
		build func() (*loopir.Program, error)
	}
	var vs []variant
	for _, name := range workloads.Names() {
		vs = append(vs, variant{name, func() (*loopir.Program, error) {
			return workloads.BuildProgram(name, benchScale())
		}})
	}
	vs = append(vs,
		variant{"MDG/swpf=4", func() (*loopir.Program, error) {
			p, err := workloads.BuildProgram("MDG", benchScale())
			if err != nil {
				return nil, err
			}
			_, err = locality.InsertPrefetches(p, 4)
			return p, err
		}},
		variant{"BlockedMM/ld=120/copy", func() (*loopir.Program, error) {
			return workloads.BlockedMM(benchScale(), 120, true)
		}},
		variant{"BlockedMV/b=50", func() (*loopir.Program, error) {
			return workloads.BlockedMV(benchScale(), 50)
		}},
	)
	for _, v := range vs {
		b.Run(v.name, func(b *testing.B) {
			p, err := v.build()
			if err != nil {
				b.Fatal(err)
			}
			records := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := tracegen.Generate(p, tracegen.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				records += tr.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
		b.Run("stream/"+v.name, func(b *testing.B) {
			p, err := v.build()
			if err != nil {
				b.Fatal(err)
			}
			records := 0
			count := func(recs []trace.Record) error {
				records += len(recs)
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := tracegen.NewReader(p, tracegen.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := trace.Each(context.Background(), r, count); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
	}
}

func BenchmarkLocalityAnalysis(b *testing.B) {
	p, err := workloads.BuildProgram("Slalom", benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locality.Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
}
