package timing_test

import (
	"testing"

	"softcache/internal/timing"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

// TestGapStreamTracePastCap: a trace longer than the gap stream's cap
// carries, record for record, the gaps per-record sampling draws (the
// first record's gap is 0), across chunk boundaries and past the cap, on
// the chunked path of a strided program (MV) and the per-record path of
// an indirect one (SpMV), whether Generate materialises it or a Reader
// streams it in batches that end mid-chunk.
func TestGapStreamTracePastCap(t *testing.T) {
	defer timing.SetGapStreamShape(1000, 3)()
	for _, name := range []string{"MV", "SpMV"} {
		for _, seed := range []uint64{1, 9} {
			p, err := workloads.BuildProgram(name, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := tracegen.Generate(p, tracegen.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if whole.Len() <= 3000 {
				t.Fatalf("%s: %d records do not pass the cap of 3000 gaps", name, whole.Len())
			}
			r, err := tracegen.NewReader(p, tracegen.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var streamed []trace.Record
			batch := make([]trace.Record, 777)
			for {
				n, err := r.ReadBatch(batch)
				streamed = append(streamed, batch[:n]...)
				if err != nil {
					break
				}
			}
			r.Close()
			if len(streamed) != whole.Len() {
				t.Fatalf("%s seed %d: Reader gave %d records, Generate %d", name, seed, len(streamed), whole.Len())
			}
			rng, m := timing.NewRNG(seed), timing.PaperGapModel()
			for i, rec := range whole.Records {
				want := uint8(m.Sample(rng))
				if i == 0 {
					want = 0
				}
				if rec.Gap != want || streamed[i] != rec {
					t.Fatalf("%s seed %d, record %d: gap %d (Reader %d), want %d", name, seed, i, rec.Gap, streamed[i].Gap, want)
				}
			}
		}
	}
}
