// Package workloads defines the benchmark suite of the paper as loopir
// programs: the two numerical primitives MV and SpMV, Livermore-loop-style
// LIV, NAS- and Slalom-style solvers, and Perfect-Club-style dusty-deck
// codes (MDG, BDN, DYF, TRF, plus ADM, ARC, FLO for fig. 10a).
//
// The original Fortran sources are not redistributable, so each workload is
// a synthetic kernel shaped to match the properties the paper reports for
// its namesake: working-set size relative to the 8 KiB cache, stride
// pattern, fraction of references carrying temporal/spatial tags
// (fig. 4a), reuse-distance profile (fig. 1a) and vector lengths
// (fig. 1b). DESIGN.md documents this substitution. Everything the
// simulator observes — the tagged reference stream — is therefore
// structurally faithful even though the arithmetic is not.
//
// Every workload exists at two scales: ScaleTest (small, for unit tests)
// and ScalePaper (full-size, for the figure benches).
package workloads

import (
	"fmt"
	"sort"

	"softcache/internal/loopir"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
)

// Scale selects workload sizing.
type Scale int

const (
	// ScaleTest is small enough for unit tests (tens of thousands of
	// references).
	ScaleTest Scale = iota
	// ScalePaper is the figure-bench size (hundreds of thousands to a few
	// million references).
	ScalePaper
)

func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "test"
}

// ParseScale maps a scale's name, as String prints it, back to the Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "paper":
		return ScalePaper, nil
	case "test":
		return ScaleTest, nil
	}
	return 0, fmt.Errorf("workloads: unknown scale %q (want paper or test)", name)
}

// Definition is one registered workload.
type Definition struct {
	Name        string
	Description string
	// Build constructs the loopir program at the given scale.
	Build func(Scale) (*loopir.Program, error)
	// Kernel marks the fig. 10a "most time-consuming subroutine only"
	// variants.
	Kernel bool
}

var registry = map[string]Definition{}

// benchmarkOrder is the paper's x-axis order for the 9 main benchmarks.
var benchmarkOrder = []string{"MDG", "BDN", "DYF", "TRF", "NAS", "Slalom", "LIV", "MV", "SpMV"}

// kernelOrder is the fig. 10a x-axis order.
var kernelOrder = []string{"ADM", "MDG", "BDN", "DYF", "ARC", "FLO", "TRF"}

func register(d Definition) {
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate workload %q", d.Name))
	}
	registry[d.Name] = d
}

// Get returns a workload definition by name.
func Get(name string) (Definition, error) {
	d, ok := registry[name]
	if !ok {
		return Definition{}, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return d, nil
}

// Names returns all registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Benchmarks returns the paper's 9 main benchmarks in figure order.
func Benchmarks() []string { return append([]string(nil), benchmarkOrder...) }

// Kernels returns the fig. 10a hot-subroutine variants in figure order
// (registered under the base code name + "-kernel").
func Kernels() []string {
	out := make([]string, len(kernelOrder))
	for i, n := range kernelOrder {
		out[i] = n + "-kernel"
	}
	return out
}

// BuildProgram builds the named workload's program at the given scale.
func BuildProgram(name string, scale Scale) (*loopir.Program, error) {
	d, err := Get(name)
	if err != nil {
		return nil, err
	}
	p, err := d.Build(scale)
	if err != nil {
		return nil, fmt.Errorf("workloads: building %s: %w", name, err)
	}
	return p, nil
}

// Trace builds the named workload and generates its tagged trace with the
// given seed (the seed drives the inter-reference gap sampling and any
// randomised data inside the workload uses its own fixed seed, so traces
// are reproducible).
func Trace(name string, scale Scale, seed uint64) (*trace.Trace, error) {
	p, err := BuildProgram(name, scale)
	if err != nil {
		return nil, err
	}
	t, err := tracegen.Generate(p, tracegen.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("workloads: generating %s: %w", name, err)
	}
	return t, nil
}

// pick returns tv at ScaleTest and pv at ScalePaper.
func pick(s Scale, tv, pv int) int {
	if s == ScalePaper {
		return pv
	}
	return tv
}
