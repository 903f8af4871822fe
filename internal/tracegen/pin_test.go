package tracegen_test

import (
	"fmt"
	"testing"

	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

// pinnedTraces holds the fingerprint of every trace pinBuilds lists, taken
// before generation learnt to write strided loops a chunk at a time: the
// generator's speed work must leave every record and gap as it was.
var pinnedTraces = map[string]uint64{
	"ADM-kernel/seed=1":            0xf58a8ba7498da3ab,
	"ADM-kernel/seed=2":            0xf6aeba6651fbc25c,
	"ADM/seed=1":                   0x431a3f636e1e08d4,
	"ADM/seed=2":                   0x1758515395c7722c,
	"ARC-kernel/seed=1":            0xd6e0a1519a61438e,
	"ARC-kernel/seed=2":            0xec1672eb5c63b6a6,
	"ARC/seed=1":                   0x70ec943e886951c1,
	"ARC/seed=2":                   0x9e0820a92d315caa,
	"BDN-kernel/seed=1":            0xd4b641cd5f7098f7,
	"BDN-kernel/seed=2":            0xc78e127903daa923,
	"BDN/seed=1":                   0x5905a4d07647c408,
	"BDN/seed=2":                   0xde3c1f12fac0f82d,
	"BlockedMM/ld=120/copy/seed=1": 0x4505fc41ff9bad9a,
	"BlockedMM/ld=120/copy/seed=2": 0xa099369b6a9a0fad,
	"DYF-kernel/seed=1":            0x6711cc4f081516f6,
	"DYF-kernel/seed=2":            0x30153ade922c4e7f,
	"DYF/seed=1":                   0x849057e80f0308f3,
	"DYF/seed=2":                   0x42e37e5165d2e771,
	"FFT/seed=1":                   0x3a2782435c74e97,
	"FFT/seed=2":                   0xf43976695152a054,
	"FLO-kernel/seed=1":            0x4381e4dbd2f368a0,
	"FLO-kernel/seed=2":            0x1f2ab4bd517a0ac5,
	"FLO/seed=1":                   0x44dc065a332939df,
	"FLO/seed=2":                   0xd0bfc53403df602f,
	"LIV/seed=1":                   0x961a2709712bd01f,
	"LIV/seed=2":                   0xe86893da3a6c9b6f,
	"MDG-kernel/seed=1":            0xd9f30b11f14388c8,
	"MDG-kernel/seed=2":            0x8e4dca94ab320bd3,
	"MDG/seed=1":                   0x12e07c610f8e1963,
	"MDG/seed=2":                   0xf6bfa1926c8f3cd2,
	"MDG/swpf=4/seed=1":            0xea5640f010002120,
	"MDG/swpf=4/seed=2":            0xc8534b9e9c32c695,
	"MV/seed=1":                    0xdb5a3e05cdfffff6,
	"MV/seed=2":                    0xedaf565dd7222325,
	"NAS/seed=1":                   0xa8457123497d384b,
	"NAS/seed=2":                   0x4f4e93c634b593a1,
	"Slalom/seed=1":                0xa9c77b472b00aaca,
	"Slalom/seed=2":                0x78744add9b9c7a12,
	"SpMV/seed=1":                  0xec7e019e88d539d9,
	"SpMV/seed=2":                  0x93c7abe6aec3b59d,
	"TRF-kernel/seed=1":            0xc2f25e0de134d4ca,
	"TRF-kernel/seed=2":            0x51397d9deebcf0cf,
	"TRF/seed=1":                   0x33ff354fb79046c9,
	"TRF/seed=2":                   0x716387f9953f6e16,
	"Transpose/seed=1":             0x9c26c020d15ee4a2,
	"Transpose/seed=2":             0xcc58570cd42f8acf,
}

// pinBuilds lists the traces whose fingerprints are pinned: every named
// workload at test scale, and one prefetch and one blocked variant.
func pinBuilds() map[string]func() (*loopir.Program, error) {
	builds := map[string]func() (*loopir.Program, error){}
	for _, name := range workloads.Names() {
		builds[name] = func() (*loopir.Program, error) { return workloads.BuildProgram(name, workloads.ScaleTest) }
	}
	builds["MDG/swpf=4"] = func() (*loopir.Program, error) {
		p, err := workloads.BuildProgram("MDG", workloads.ScaleTest)
		if err != nil {
			return nil, err
		}
		_, err = locality.InsertPrefetches(p, 4)
		return p, err
	}
	builds["BlockedMM/ld=120/copy"] = func() (*loopir.Program, error) {
		return workloads.BlockedMM(workloads.ScaleTest, 120, true)
	}
	return builds
}

// TestTraceFingerprintsPinned generates each pinned trace twice, with
// Generate and through a Reader whose 7-record batches end mid-iteration,
// and checks both against the pinned fingerprint.
func TestTraceFingerprintsPinned(t *testing.T) {
	for name, build := range pinBuilds() {
		for _, seed := range []uint64{1, 2} {
			key := fmt.Sprintf("%s/seed=%d", name, seed)
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			whole, err := tracegen.Generate(p, tracegen.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if p, err = build(); err != nil {
				t.Fatal(err)
			}
			r, err := tracegen.NewReader(p, tracegen.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			recs, err := readAll(r, 7)
			r.Close()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			streamed := &trace.Trace{Name: r.Name(), Records: recs}
			want, ok := pinnedTraces[key]
			if !ok {
				t.Errorf("%q: %#x, not pinned", key, whole.Fingerprint())
				continue
			}
			if got := whole.Fingerprint(); got != want {
				t.Errorf("%s: Generate fingerprint %#x, want %#x", key, got, want)
			}
			if got := streamed.Fingerprint(); got != want {
				t.Errorf("%s: Reader fingerprint %#x, want %#x", key, got, want)
			}
		}
	}
}

// TestMaxRecordsMidChunkPinned: a MaxRecords limit falling inside a run
// of in-range iterations fails at the same record, after the same
// records, as before chunked generation, with Generate and with a Reader
// whose batch size does not divide the limit.
func TestMaxRecordsMidChunkPinned(t *testing.T) {
	const (
		max         = 5003
		want uint64 = 0xbb2b2e8eae36cde9
	)
	opts := tracegen.Options{Seed: 1, MaxRecords: max}
	p, err := workloads.BlockedMM(workloads.ScaleTest, 120, true)
	if err != nil {
		t.Fatal(err)
	}
	_, genErr := tracegen.Generate(p, opts)
	if genErr == nil {
		t.Fatal("Generate must fail past MaxRecords")
	}
	if p, err = workloads.BlockedMM(workloads.ScaleTest, 120, true); err != nil {
		t.Fatal(err)
	}
	r, err := tracegen.NewReader(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs, err := readAll(r, 7)
	if err == nil || err.Error() != genErr.Error() {
		t.Fatalf("Reader error %v, want Generate's %v", err, genErr)
	}
	if len(recs) != max {
		t.Fatalf("Reader delivered %d records before failing, want %d", len(recs), max)
	}
	if got := (&trace.Trace{Name: r.Name(), Records: recs}).Fingerprint(); got != want {
		t.Fatalf("records before the failure: fingerprint %#x, want %#x", got, want)
	}
}
