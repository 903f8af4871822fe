package timing

import "testing"

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look identical (%d collisions)", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must still produce a usable stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v", v)
		}
	}
}

func TestGapModelValidation(t *testing.T) {
	cases := []struct {
		name    string
		buckets []GapBucket
	}{
		{"empty", nil},
		{"zero cycles", []GapBucket{{Cycles: 0, Weight: 1}}},
		{"zero weight", []GapBucket{{Cycles: 1, Weight: 0}}},
		{"negative weight", []GapBucket{{Cycles: 1, Weight: -1}}},
		{"non-increasing", []GapBucket{{Cycles: 2, Weight: 1}, {Cycles: 2, Weight: 1}}},
	}
	for _, tc := range cases {
		if _, err := NewGapModel(tc.buckets); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
	if _, err := NewGapModel(PaperGapBuckets); err != nil {
		t.Fatalf("paper buckets rejected: %v", err)
	}
}

func TestGapModelSampling(t *testing.T) {
	m := PaperGapModel()
	rng := NewRNG(1)
	counts := map[int]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		g := m.Sample(rng)
		if g < 1 || g > m.MaxCycles() {
			t.Fatalf("sample %d out of range", g)
		}
		counts[g]++
	}
	// The mode must be 2 cycles, as in fig. 4b.
	for g, c := range counts {
		if g != 2 && c > counts[2] {
			t.Fatalf("mode is %d, want 2", g)
		}
	}
	// Empirical mean close to the analytic mean.
	sum := 0
	for g, c := range counts {
		sum += g * c
	}
	emp := float64(sum) / n
	if d := emp - m.Mean(); d > 0.05 || d < -0.05 {
		t.Fatalf("empirical mean %.3f vs analytic %.3f", emp, m.Mean())
	}
}

func TestGapModelConstant(t *testing.T) {
	m := Constant(3)
	rng := NewRNG(5)
	for i := 0; i < 100; i++ {
		if m.Sample(rng) != 3 {
			t.Fatal("Constant(3) must always sample 3")
		}
	}
	if m.Mean() != 3 {
		t.Fatalf("Mean = %v", m.Mean())
	}
}

func TestGapModelMeanMatchesPaperBallpark(t *testing.T) {
	// The fig. 4b distribution has most mass at 1-5 cycles; the mean must
	// land in a plausible 2.5-5 cycle window.
	m := PaperGapModel()
	if mean := m.Mean(); mean < 2.5 || mean > 5 {
		t.Fatalf("paper gap mean %.2f outside plausible window", mean)
	}
}

// floatGap is the sampler in floating point, as Sample drew before it
// moved to integers: the reference gapAt must match draw for draw.
func floatGap(m *GapModel, u53 uint64) int {
	u := float64(u53) / (1 << 53)
	i := m.lut[int(u*256)]
	for i < len(m.cum)-1 && m.cum[i] < u {
		i++
	}
	return m.cycles[i]
}

// TestGapAtMatchesFloat: the integer draw picks the float reference's
// bucket at both edges of every LUT cell, around every bucket boundary
// and on a million random states, for the paper's model, a constant one
// and one with a bucket narrower than a LUT cell.
func TestGapAtMatchesFloat(t *testing.T) {
	narrow, err := NewGapModel([]GapBucket{{Cycles: 1, Weight: 0.5}, {Cycles: 2, Weight: 1e-6}, {Cycles: 3, Weight: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*GapModel{"paper": PaperGapModel(), "constant": Constant(3), "narrow": narrow}
	const top = 1<<53 - 1
	for name, m := range models {
		var probes []uint64
		for k := uint64(0); k < 256; k++ {
			probes = append(probes, k<<45, (k+1)<<45-1)
		}
		for _, c := range m.cut {
			for d := -2; d <= 2; d++ {
				if u := int64(c) + int64(d); u >= 0 && u <= top {
					probes = append(probes, uint64(u))
				}
			}
		}
		for _, u := range probes {
			if got, want := m.gapAt(u), floatGap(m, u); got != want {
				t.Fatalf("%s: u53 %#x: gapAt %d, float reference %d", name, u, got, want)
			}
		}
		rng := NewRNG(11)
		for i := 0; i < 1_000_000; i++ {
			ref := *rng
			got := m.Sample(rng)
			if want := floatGap(m, ref.Uint64()>>11); got != want {
				t.Fatalf("%s: draw %d: Sample %d, float reference %d", name, i, got, want)
			}
		}
	}
	if narrow.gapAt(narrow.cut[0]+1) != 2 {
		t.Fatal("the narrow bucket is never drawn")
	}
}
