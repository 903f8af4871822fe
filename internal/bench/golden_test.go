package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"softcache/internal/core"
	"softcache/internal/workloads"
)

// updateGolden rewrites the test-scale golden CSVs instead of comparing:
//
//	go test ./internal/bench -run TestGoldenFigures -update
var updateGolden = flag.Bool("update", false, "rewrite the golden figure CSVs in testdata/golden")

// goldenScaleEnv selects the comparison target. Unset (the default, and
// what tier-1 CI runs) regenerates every figure at test scale against the
// goldens committed in testdata/golden. Setting it to "paper" replays the
// full paper-scale evaluation and diffs against the published results/
// directory — minutes of simulation, meant for release checks:
//
//	SOFTCACHE_GOLDEN_SCALE=paper go test ./internal/bench -run TestGoldenFigures -timeout 60m
const goldenScaleEnv = "SOFTCACHE_GOLDEN_SCALE"

// checkCycleConservation checks the cycle-conservation identity
// (cache.Stats.ModelCostCycles) on every answer ctx's figures simulated.
func checkCycleConservation(t *testing.T, ctx *Context) {
	t.Helper()
	ctx.answers.mu.Lock()
	defer ctx.answers.mu.Unlock()
	checked := 0
	for k, res := range ctx.answers.m {
		want, ok := res.Stats.ModelCostCycles(k.cfg)
		if !ok {
			continue
		}
		checked++
		if res.Stats.CostCycles != want {
			t.Errorf("%s / %s: CostCycles %d, the cost model charges %d for the counted events",
				k.trace, core.Describe(k.cfg), res.Stats.CostCycles, want)
		}
	}
	if checked == 0 {
		t.Error("no answer has a closed-form cost to check")
	}
}

// TestGoldenFigures regenerates every figure experiment and compares the
// CSV output byte for byte against the committed goldens. Any behavioural
// change to the simulator — however small — shows up here as a numeric
// diff, pinned to the figure and table cell that moved. The context is
// fresh, so its worker budget follows the test's GOMAXPROCS: CI runs it
// with -cpu 1,4 to pin the output byte for byte whether every figure's
// rows run on one worker or on four.
func TestGoldenFigures(t *testing.T) {
	ctx := NewContext(workloads.ScaleTest, 1)
	goldenDir := filepath.Join("testdata", "golden")
	paperScale := os.Getenv(goldenScaleEnv) == "paper"
	if paperScale {
		if *updateGolden {
			t.Fatalf("%s=paper cannot be combined with -update: results/ is regenerated by the sweep harness, not by this test", goldenScaleEnv)
		}
		ctx = NewContext(workloads.ScalePaper, 1)
		goldenDir = filepath.Join("..", "..", "results")
	}

	reports, err := RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleConservation(t, ctx)
	outDir := t.TempDir()
	var files []string
	for _, r := range reports {
		w, err := WriteCSV(outDir, r)
		if err != nil {
			t.Fatalf("figure %s: %v", r.ID, err)
		}
		files = append(files, w...)
	}

	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, filepath.Base(f)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("updated %d golden files in %s", len(files), goldenDir)
		return
	}

	produced := map[string]bool{}
	for _, f := range files {
		name := filepath.Base(f)
		produced[name] = true
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Errorf("no golden for %s (regenerate with: go test ./internal/bench -run TestGoldenFigures -update): %v", name, err)
			continue
		}
		got, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverges from golden:\n%s", name, firstDiff(string(want), string(got)))
		}
	}

	// Goldens with no matching experiment are stale — they would silently
	// stop guarding anything. (results/ also holds non-CSV artifacts and is
	// owned by the sweep harness, so the check only applies to testdata.)
	if !paperScale {
		entries, err := os.ReadDir(goldenDir)
		if err != nil {
			t.Fatal(err)
		}
		var stale []string
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".csv") && !produced[e.Name()] {
				stale = append(stale, e.Name())
			}
		}
		sort.Strings(stale)
		if len(stale) > 0 {
			t.Errorf("stale goldens with no generating experiment: %v", stale)
		}
	}
}

// firstDiff locates the first line where two CSV bodies disagree.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("golden has %d lines, got %d", len(wl), len(gl))
}
