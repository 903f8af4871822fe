package timing

import (
	"fmt"
	"sync"
)

// GapBucket is one entry of a discrete inter-reference time distribution:
// gaps of Cycles cycles occur with probability Weight (weights are
// normalised internally, so any positive scale works).
type GapBucket struct {
	Cycles int
	Weight float64
}

// GapModel samples inter-reference time gaps from a fixed discrete
// distribution. It implements the paper's scheme: a pessimistic 1
// cycle/instruction model summarised by the fig. 4b histogram.
//
// A model is read-only once built, so goroutines may share one.
type GapModel struct {
	cycles []int
	cum    []float64 // cumulative, normalised to 1.0
	// cut[i] is floor(cum[i]·2^53): Sample's uniform draw u53/2^53
	// exceeds cum[i] exactly when u53 > cut[i], so the draw stays in
	// integers. The last bucket's cut is 2^53, above every draw.
	cut []uint64
	// lut[k] is the first bucket index whose cumulative probability
	// exceeds k/256 — a starting point that makes Sample O(1) in practice
	// instead of a binary search per reference.
	lut [256]int
}

// PaperGapBuckets is the distribution read off figure 4b of the paper:
// the x axis buckets are 1, 2, 3, 4, 5, 10, 15, 20 and ">20" cycles, and the
// fractions of load/store instructions (y axis) are approximately the values
// below. Buckets between the labelled points (6..9, 11..14, 16..19) carry
// the residual mass of their neighbourhood; ">20" is represented as 25.
var PaperGapBuckets = []GapBucket{
	{Cycles: 1, Weight: 0.17},
	{Cycles: 2, Weight: 0.31},
	{Cycles: 3, Weight: 0.16},
	{Cycles: 4, Weight: 0.10},
	{Cycles: 5, Weight: 0.07},
	{Cycles: 6, Weight: 0.035},
	{Cycles: 7, Weight: 0.025},
	{Cycles: 8, Weight: 0.02},
	{Cycles: 9, Weight: 0.015},
	{Cycles: 10, Weight: 0.025},
	{Cycles: 12, Weight: 0.015},
	{Cycles: 15, Weight: 0.015},
	{Cycles: 18, Weight: 0.01},
	{Cycles: 20, Weight: 0.01},
	{Cycles: 25, Weight: 0.01},
}

// NewGapModel builds a sampler from the given buckets. It returns an error
// if the buckets are empty, contain non-positive cycles or non-positive
// weights, or are not strictly increasing in cycles.
func NewGapModel(buckets []GapBucket) (*GapModel, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("timing: empty gap distribution")
	}
	total := 0.0
	for i, b := range buckets {
		if b.Cycles <= 0 {
			return nil, fmt.Errorf("timing: bucket %d has non-positive cycles %d", i, b.Cycles)
		}
		if b.Weight <= 0 {
			return nil, fmt.Errorf("timing: bucket %d has non-positive weight %g", i, b.Weight)
		}
		if i > 0 && buckets[i-1].Cycles >= b.Cycles {
			return nil, fmt.Errorf("timing: bucket cycles must be strictly increasing")
		}
		total += b.Weight
	}
	m := &GapModel{
		cycles: make([]int, len(buckets)),
		cum:    make([]float64, len(buckets)),
		cut:    make([]uint64, len(buckets)),
	}
	acc := 0.0
	for i, b := range buckets {
		m.cycles[i] = b.Cycles
		acc += b.Weight / total
		m.cum[i] = acc
	}
	m.cum[len(m.cum)-1] = 1.0 // guard against FP drift
	for i, c := range m.cum {
		m.cut[i] = uint64(c * (1 << 53)) // exact: a power-of-two scale
	}
	for k := range m.lut {
		u := float64(k) / 256
		i := 0
		for i < len(m.cum)-1 && m.cum[i] <= u {
			i++
		}
		m.lut[k] = i
	}
	return m, nil
}

// paperGapModel is the fig. 4b model, built once: it panics only if the
// built-in table is malformed, which is covered by tests.
var paperGapModel = sync.OnceValue(func() *GapModel {
	m, err := NewGapModel(PaperGapBuckets)
	if err != nil {
		panic(err)
	}
	return m
})

// PaperGapModel returns the fig. 4b distribution. Every call returns the
// same read-only model.
func PaperGapModel() *GapModel { return paperGapModel() }

// Sample draws one gap (in cycles, >= 1): the gap whose bucket holds the
// uniform draw u53/2^53 of RNG.Float64.
func (m *GapModel) Sample(rng *RNG) int { return m.gapAt(rng.Uint64() >> 11) }

// gapAt returns the gap of the first bucket whose cumulative probability
// is not below u53/2^53, comparing in integers: u53>>45 is the LUT cell
// int(u*256), and u53 > cut[i] is cum[i] < u.
func (m *GapModel) gapAt(u53 uint64) int {
	i := m.lut[u53>>45]
	for u53 > m.cut[i] {
		i++
	}
	return m.cycles[i]
}

// Mean returns the expected gap in cycles.
func (m *GapModel) Mean() float64 {
	mean := 0.0
	prev := 0.0
	for i, c := range m.cycles {
		p := m.cum[i] - prev
		prev = m.cum[i]
		mean += p * float64(c)
	}
	return mean
}

// MaxCycles returns the largest gap the model can produce.
func (m *GapModel) MaxCycles() int { return m.cycles[len(m.cycles)-1] }

// Constant returns a degenerate model that always produces gap cycles.
// Useful in tests and for issue-rate sensitivity studies.
func Constant(cycles int) *GapModel {
	m, err := NewGapModel([]GapBucket{{Cycles: cycles, Weight: 1}})
	if err != nil {
		panic(err)
	}
	return m
}
