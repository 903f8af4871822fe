package refmodel_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"softcache/internal/cache"
	"softcache/internal/cache/refmodel"
	"softcache/internal/core"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// variant is one design point of the differential matrix.
type variant struct {
	name string
	cfg  cache.Config
}

// variants spans every mechanism the simulator models: the paper's figure
// configurations plus replacement policies, write policies and prefetch
// modes that no figure exercises but the kernel still implements.
func variants() []variant {
	random2 := core.SetAssoc(core.Standard(), 2)
	random2.Replacement = cache.ReplaceRandom
	fifo2 := core.SetAssoc(core.Standard(), 2)
	fifo2.Replacement = cache.ReplaceFIFO
	tinySoft := core.WithGeometry(core.Soft(), 2048, 16, 64)
	noCoherence := core.Soft()
	noCoherence.NoCoherenceChecks = true
	temporalAdmission := core.Soft()
	temporalAdmission.TemporalOnlyAdmission = true
	bb4way := core.Soft()
	bb4way.BounceBackAssoc = 4
	// Three sets of four: the set index is a modulo, and a swap's
	// displaced main line can belong to another set than the hit's.
	bb3sets := core.Soft()
	bb3sets.BounceBackLines, bb3sets.BounceBackAssoc = 12, 4
	bb1 := core.Soft()
	bb1.BounceBackLines = 1
	return []variant{
		{"Standard", core.Standard()},
		{"Soft", core.Soft()},
		{"SoftVariable", core.SoftVariable()},
		{"SoftTemporal", core.SoftTemporal()},
		{"SoftSpatial", core.SoftSpatial()},
		{"Victim", core.Victim()},
		{"BypassPlain", core.BypassPlain()},
		{"BypassBuffered", core.BypassBuffered()},
		{"SetAssoc2", core.SetAssoc(core.Soft(), 2)},
		{"SetAssoc4", core.SetAssoc(core.Soft(), 4)},
		{"SimplifiedSoft2", core.SimplifiedSoftAssoc(2)},
		{"SimplifiedSoft4", core.SimplifiedSoftAssoc(4)},
		{"StreamBuffers", core.StandardStreamBuffers()},
		{"ColumnAssociative", core.ColumnAssociative()},
		{"Subblocked", core.Subblocked()},
		{"PrefetchSW", core.WithPrefetch(core.Soft(), true)},
		{"PrefetchHW", core.WithPrefetch(core.Soft(), false)},
		{"WriteThroughAlloc", core.WithWritePolicy(core.Standard(), cache.WriteThroughAllocate)},
		{"Random2", random2},
		{"FIFO2", fifo2},
		{"TinySoft", tinySoft},
		{"SoftNoCoherence", noCoherence},
		{"SoftTemporalAdmission", temporalAdmission},
		{"BounceBack4Way", bb4way},
		{"BounceBack3Sets", bb3sets},
		{"BounceBack1", bb1},
	}
}

// runDifferential replays records through the optimized kernel and the
// naive reference model in lockstep. On the first diverging per-record
// cost it reports the record index, the record itself and both simulators'
// statistics at that point; afterwards the full Stats structs (memory
// counters included) must match field for field. A second kernel then
// replays the same records through AccessAll in chunks of seeded random
// size, so runs of batched hits are checked too: each chunk's returned
// cost must equal the reference costs of its records, and the final Stats
// must match again.
func runDifferential(t *testing.T, cfg cache.Config, records []trace.Record) {
	t.Helper()
	opt, err := cache.New(cfg)
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	ref, err := refmodel.New(cfg)
	if err != nil {
		t.Fatalf("refmodel.New: %v", err)
	}
	costs := make([]int, len(records))
	for i, r := range records {
		co := opt.Access(r)
		cr := ref.Access(r)
		if co != cr {
			t.Fatalf("divergence at record %d: %+v\noptimized cost %d, reference cost %d\noptimized state: %+v\nreference state: %+v",
				i, r, co, cr, opt.Stats(), ref.Stats())
		}
		costs[i] = cr
	}
	so, sr := opt.Stats(), ref.Stats()
	if !reflect.DeepEqual(so, sr) {
		t.Fatalf("final stats diverge after %d records:\noptimized: %+v\nreference: %+v",
			len(records), so, sr)
	}
	checkCycles(t, cfg, so)

	batched, err := cache.New(cfg)
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for lo := 0; lo < len(records); {
		hi := min(lo+1+rng.Intn(4096), len(records))
		var want uint64
		for _, c := range costs[lo:hi] {
			want += uint64(c)
		}
		if got := batched.AccessAll(records[lo:hi]); got != want {
			t.Fatalf("AccessAll over records [%d,%d): cost %d, reference cost %d\nbatched state: %+v",
				lo, hi, got, want, batched.Stats())
		}
		lo = hi
	}
	if sb := batched.Stats(); !reflect.DeepEqual(sb, sr) {
		t.Fatalf("batched final stats diverge after %d records:\nbatched:   %+v\nreference: %+v",
			len(records), sb, sr)
	}
}

// checkCycles fails t unless st conserves cycles under cfg: CostCycles
// must equal the sum the cost model charges for its counted events
// (cache.Stats.ModelCostCycles), where that sum has a closed form.
func checkCycles(t *testing.T, cfg cache.Config, st cache.Stats) {
	t.Helper()
	if want, ok := st.ModelCostCycles(cfg); ok && st.CostCycles != want {
		t.Fatalf("CostCycles %d, the cost model charges %d for the counted events (off by %d): %+v",
			st.CostCycles, want, int64(st.CostCycles)-int64(want), st)
	}
}

// TestDifferentialWorkloads cross-checks every design point against every
// paper benchmark at test scale. -short trims the matrix to one row and
// one column (every config on MV, every workload on Soft).
func TestDifferentialWorkloads(t *testing.T) {
	traces := map[string][]trace.Record{}
	for _, name := range workloads.Benchmarks() {
		tr, err := workloads.Trace(name, workloads.ScaleTest, 1)
		if err != nil {
			t.Fatalf("workloads.Trace(%s): %v", name, err)
		}
		traces[name] = tr.Records
	}
	for _, v := range variants() {
		for _, w := range workloads.Benchmarks() {
			if testing.Short() && v.name != "Soft" && w != "MV" {
				continue
			}
			t.Run(v.name+"/"+w, func(t *testing.T) {
				runDifferential(t, v.cfg, traces[w])
			})
		}
	}
}

// randomRecords synthesizes an adversarial trace: a small conflict-heavy
// working set with occasional far jumps, stores, temporal/spatial tags,
// virtual-line length hints and software prefetches, all drawn from a
// seeded generator so failures replay exactly.
func randomRecords(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 14))
		switch rng.Intn(8) {
		case 0:
			addr += 1 << 20 // far region: forces evictions and writebacks
		case 1:
			addr = uint64(rng.Intn(1 << 9)) // hot region: hits and swaps
		}
		addr &^= 3 // word-aligned
		r := trace.Record{
			Addr:     addr,
			RefID:    uint32(rng.Intn(64)),
			Gap:      uint8(rng.Intn(4)),
			Size:     uint8(4 << rng.Intn(2)),
			Write:    rng.Intn(10) < 3,
			Temporal: rng.Intn(4) == 0,
			Spatial:  rng.Intn(4) == 0,
		}
		if r.Spatial {
			r.VirtualHint = uint8(rng.Intn(4))
		}
		if rng.Intn(20) == 0 {
			r = trace.Record{Addr: addr, SoftwarePrefetch: true, Gap: uint8(rng.Intn(4))}
		}
		recs = append(recs, r)
	}
	return recs
}

// TestDifferentialRandomTraces hammers every design point with seeded
// random traces, the complement of the structured workload sweep.
func TestDifferentialRandomTraces(t *testing.T) {
	n := 20_000
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		n = 4_000
		seeds = seeds[:2]
	}
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			for _, seed := range seeds {
				runDifferential(t, v.cfg, randomRecords(seed, n))
			}
		})
	}
}

// TestSimulateManyDifferential replays one fused core.Run pass
// across the entire variant matrix and checks every configuration's final
// statistics against an independent reference-model replay. This closes
// the loop the per-config differential leaves open: the fused kernel's
// batch interleaving across simulators must not perturb any design point.
func TestSimulateManyDifferential(t *testing.T) {
	vs := variants()
	cfgs := make([]cache.Config, len(vs))
	for i, v := range vs {
		cfgs[i] = v.cfg
	}
	sources := map[string][]trace.Record{}
	for _, w := range []string{"MV", "SpMV", "MDG"} {
		tr, err := workloads.Trace(w, workloads.ScaleTest, 1)
		if err != nil {
			t.Fatalf("workloads.Trace(%s): %v", w, err)
		}
		sources[w] = tr.Records
	}
	sources["random"] = randomRecords(7, 20_000)
	for name, records := range sources {
		if testing.Short() && name != "MV" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			tr := &trace.Trace{Name: name, Records: records}
			fused, err := core.Run(context.Background(), core.Job{Configs: cfgs}, tr.Reader())
			if err != nil {
				t.Fatalf("core.Run: %v", err)
			}
			for i, v := range vs {
				ref, err := refmodel.New(v.cfg)
				if err != nil {
					t.Fatalf("refmodel.New(%s): %v", v.name, err)
				}
				for _, r := range records {
					ref.Access(r)
				}
				if !reflect.DeepEqual(fused[i].Stats, ref.Stats()) {
					t.Errorf("%s: fused stats diverge from reference model:\nfused:     %+v\nreference: %+v",
						v.name, fused[i].Stats, ref.Stats())
				}
				checkCycles(t, v.cfg, fused[i].Stats)
			}
		})
	}
}

// TestShardedDifferential pins "one configuration, one answer": a
// one-config core.Run over every trace source — the in-memory
// Trace.Reader, flat bytes and SCTZ bytes — with and without an explicit
// zero warmup, and the two in-memory wrappers kept for the benchmark
// harness (SimulateContext, SimulateManyTrace), must return the reference
// model's statistics bit for bit, with and without runtime checks, over
// paper workloads and adversarial random traces. The suite
// keeps its name from when it also ran the set-sharded kernel, which gave
// coupled configurations a second, per-shard-count answer; that kernel is
// gone, and the one-shard cell it was measured against is what stays.
func TestShardedDifferential(t *testing.T) {
	sources := map[string][]trace.Record{}
	for _, w := range []string{"MV", "SpMV"} {
		tr, err := workloads.Trace(w, workloads.ScaleTest, 1)
		if err != nil {
			t.Fatalf("workloads.Trace(%s): %v", w, err)
		}
		sources[w] = tr.Records
	}
	sources["random1"] = randomRecords(21, 20_000)
	sources["random2"] = randomRecords(22, 20_000)
	ctx := context.Background()
	for _, v := range variants() {
		for srcName, records := range sources {
			if testing.Short() && !(srcName == "MV" || v.name == "Soft") {
				continue
			}
			t.Run(v.name+"/"+srcName, func(t *testing.T) {
				ref, err := refmodel.New(v.cfg)
				if err != nil {
					t.Fatalf("refmodel.New: %v", err)
				}
				for _, r := range records {
					ref.Access(r)
				}
				want := ref.Stats()
				tr := &trace.Trace{Name: srcName, Records: records}
				var flat, sctz bytes.Buffer
				if err := trace.Write(&flat, tr); err != nil {
					t.Fatalf("trace.Write: %v", err)
				}
				if err := trace.WriteSCTZ(&sctz, tr); err != nil {
					t.Fatalf("trace.WriteSCTZ: %v", err)
				}
				run := func(job core.Job, r trace.BatchReader, err error) (core.Result, error) {
					if err != nil {
						return core.Result{}, err
					}
					res, err := core.Run(ctx, job, r)
					if err != nil {
						return core.Result{}, err
					}
					return res[0], nil
				}
				one := func(cfg core.Config) core.Job { return core.Job{Configs: []core.Config{cfg}} }
				entries := []struct {
					name string
					run  func(core.Config) (core.Result, error)
				}{
					{"Run/memory", func(cfg core.Config) (core.Result, error) { return run(one(cfg), tr.Reader(), nil) }},
					{"Run/flat", func(cfg core.Config) (core.Result, error) {
						r, err := trace.NewReaderBytes(flat.Bytes())
						return run(one(cfg), r, err)
					}},
					{"Run/sctz", func(cfg core.Config) (core.Result, error) {
						r, err := trace.NewStreamReaderBytes(sctz.Bytes())
						return run(one(cfg), r, err)
					}},
					{"Run/warmup0", func(cfg core.Config) (core.Result, error) {
						return run(core.Job{Configs: []core.Config{cfg}, Warmup: 0}, tr.Reader(), nil)
					}},
					{"SimulateContext", func(cfg core.Config) (core.Result, error) { return core.SimulateContext(ctx, cfg, tr) }},
					{"SimulateManyTrace", func(cfg core.Config) (core.Result, error) {
						res, err := core.SimulateManyTrace(ctx, []core.Config{cfg}, tr)
						if err != nil {
							return core.Result{}, err
						}
						return res[0], nil
					}},
				}
				for _, e := range entries {
					for _, checks := range []bool{false, true} {
						got, err := e.run(core.WithRuntimeChecks(v.cfg, checks))
						if err != nil {
							t.Fatalf("%s (checks=%v): %v", e.name, checks, err)
						}
						if !reflect.DeepEqual(got.Stats, want) {
							t.Errorf("%s (checks=%v) diverges from reference model:\ngot:       %+v\nreference: %+v",
								e.name, checks, got.Stats, want)
						}
						checkCycles(t, v.cfg, got.Stats)
					}
				}
			})
		}
	}
}

// FuzzDifferential lets the fuzzer search for a trace and design point on
// which the two implementations disagree. The configs are variants(); the
// seed corpus covers each mechanism family and every bounce-back variant;
// the fuzzer mutates from there.
func FuzzDifferential(f *testing.F) {
	vs := variants()
	f.Add(int64(1), uint16(500), uint8(0))
	f.Add(int64(2), uint16(1000), uint8(1))
	f.Add(int64(3), uint16(2000), uint8(4))
	f.Add(int64(4), uint16(1500), uint8(12))
	f.Add(int64(5), uint16(800), uint8(13))
	f.Add(int64(6), uint16(900), uint8(19))
	// The bounce-back variants at the end of the matrix: coherence
	// checks off, temporal-only admission, 4-way, three sets, one line.
	for i := len(vs) - 5; i < len(vs); i++ {
		f.Add(int64(i), uint16(1200), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cfgIdx uint8) {
		v := vs[int(cfgIdx)%len(vs)]
		records := randomRecords(seed, int(n)%4096+1)
		runDifferential(t, v.cfg, records)
	})
}
