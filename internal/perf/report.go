package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// WriteJSON writes the report as indented JSON (the BENCH_kernel.json
// artifact).
func WriteJSON(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON loads a previously written report.
func ReadJSON(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	switch r.Schema {
	case SchemaID, schemaV3, schemaV2, schemaV1:
	default:
		return nil, fmt.Errorf("perf: %s has schema %q, want %q (or the older %q / %q / %q)",
			path, r.Schema, SchemaID, schemaV3, schemaV2, schemaV1)
	}
	return &r, nil
}

// Delta is one case's comparison against a baseline run.
type Delta struct {
	Name    string
	Base    *Measurement // nil when the case is new
	Current Measurement
}

// PctNs returns the ns/record change in percent (positive = slower).
func (d Delta) PctNs() float64 {
	if d.Base == nil || d.Base.NsPerRecord == 0 {
		return 0
	}
	return (d.Current.NsPerRecord/d.Base.NsPerRecord - 1) * 100
}

// Compare matches the current report's cases against a baseline by name.
// Baseline-only cases are ignored: the matrix is pinned in code, so a
// vanished case means the matrix changed on purpose.
func Compare(base, cur *Report) []Delta {
	byName := map[string]*Measurement{}
	if base != nil {
		for i := range base.Cases {
			byName[base.Cases[i].Name] = &base.Cases[i]
		}
	}
	deltas := make([]Delta, 0, len(cur.Cases))
	for _, c := range cur.Cases {
		deltas = append(deltas, Delta{Name: c.Name, Base: byName[c.Name], Current: c})
	}
	return deltas
}

// CompareMatrix matches the current report's fused rows against a
// baseline by name, mirroring Compare. v1 baselines have no matrix, so
// every row comes back baseline-less.
func CompareMatrix(base, cur *Report) []MatrixDelta {
	byName := map[string]*MatrixMeasurement{}
	if base != nil {
		for i := range base.Matrix {
			byName[base.Matrix[i].Name] = &base.Matrix[i]
		}
	}
	deltas := make([]MatrixDelta, 0, len(cur.Matrix))
	for _, m := range cur.Matrix {
		deltas = append(deltas, MatrixDelta{Name: m.Name, Base: byName[m.Name], Current: m})
	}
	return deltas
}

// MatrixDelta is one fused row's comparison against a baseline run.
type MatrixDelta struct {
	Name    string
	Base    *MatrixMeasurement // nil when the row is new (or the baseline is v1)
	Current MatrixMeasurement
}

// PctNs returns the fused ns/record change in percent (positive = slower).
func (d MatrixDelta) PctNs() float64 {
	if d.Base == nil || d.Base.FusedNsPerRecord == 0 {
		return 0
	}
	return (d.Current.FusedNsPerRecord/d.Base.FusedNsPerRecord - 1) * 100
}

// Gate returns an error listing every case whose ns/record regressed by
// more than maxRegress (a fraction: 0.15 = 15%) against the baseline; the
// fused matrix rows are gated on their fused ns/record and the decode
// rows on their SCTZ ns/record the same way. Cases absent from the
// baseline pass by definition.
func Gate(base, cur *Report, maxRegress float64) error {
	var bad []string
	for _, d := range Compare(base, cur) {
		if d.Base == nil {
			continue
		}
		if d.Current.NsPerRecord > d.Base.NsPerRecord*(1+maxRegress) {
			bad = append(bad, fmt.Sprintf("  %s: %.2f -> %.2f ns/record (%+.1f%%, budget %+.0f%%)",
				d.Name, d.Base.NsPerRecord, d.Current.NsPerRecord, d.PctNs(), maxRegress*100))
		}
	}
	for _, d := range CompareMatrix(base, cur) {
		if d.Base == nil {
			continue
		}
		if d.Current.FusedNsPerRecord > d.Base.FusedNsPerRecord*(1+maxRegress) {
			bad = append(bad, fmt.Sprintf("  %s: %.2f -> %.2f fused ns/record (%+.1f%%, budget %+.0f%%)",
				d.Name, d.Base.FusedNsPerRecord, d.Current.FusedNsPerRecord, d.PctNs(), maxRegress*100))
		}
	}
	for _, d := range CompareDecode(base, cur) {
		if d.Base == nil {
			continue
		}
		if d.Current.SCTZNsPerRecord > d.Base.SCTZNsPerRecord*(1+maxRegress) {
			bad = append(bad, fmt.Sprintf("  %s: %.2f -> %.2f sctz ns/record (%+.1f%%, budget %+.0f%%)",
				d.Name, d.Base.SCTZNsPerRecord, d.Current.SCTZNsPerRecord, d.PctNs(), maxRegress*100))
		}
	}
	// The decode matrix also carries an absolute gate, independent of any
	// baseline: corpus-weighted SCTZ streaming decode must run at or below
	// the flat-format ReadBatch cost measured in the same run. SCTZ's
	// licence to exist is "smaller and no slower"; a codec change that
	// breaks either half fails here even on a fresh machine with no
	// committed baseline. The budget is held at the paper-scale corpus:
	// test-scale smoke traces are too small to amortise the per-chunk
	// setup cost and would make quick runs flaky.
	if rows := paperDecodeRows(cur.Decode); len(rows) > 0 {
		if flatNs, sctzNs, ratio := DecodeWeighted(rows); ratio > 1.0 {
			bad = append(bad, fmt.Sprintf(
				"  decode (corpus-weighted): sctz %.2f ns/record vs flat %.2f (%.2fx, budget 1.00x)",
				sctzNs, flatNs, ratio))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("perf: %d case(s) regressed beyond the %.0f%% ns/record budget:\n%s",
			len(bad), maxRegress*100, strings.Join(bad, "\n"))
	}
	return nil
}

// Markdown renders the run as a markdown report; with a baseline it adds
// the delta column (the "delta report" of docs/PERF.md).
func Markdown(base, cur *Report) string {
	var b strings.Builder
	b.WriteString("# Kernel benchmark matrix\n\n")
	fmt.Fprintf(&b, "%s, %s/%s, %d CPUs", cur.GoVersion, cur.GOOS, cur.GOARCH, cur.CPUs)
	if cur.Quick {
		b.WriteString(", quick matrix")
	}
	b.WriteString("\n\n")
	if base != nil {
		b.WriteString("| case | records | ns/record | baseline | Δ ns/record | records/s | allocs/op |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|---:|\n")
	} else {
		b.WriteString("| case | records | ns/record | records/s | allocs/op |\n")
		b.WriteString("|---|---:|---:|---:|---:|\n")
	}
	for _, d := range Compare(base, cur) {
		c := d.Current
		if base != nil {
			baseNs, delta := "–", "new"
			if d.Base != nil {
				baseNs = fmt.Sprintf("%.2f", d.Base.NsPerRecord)
				delta = fmt.Sprintf("%+.1f%%", d.PctNs())
			}
			fmt.Fprintf(&b, "| %s | %d | %.2f | %s | %s | %s | %.0f |\n",
				c.Name, c.Records, c.NsPerRecord, baseNs, delta, human(c.RecordsPerSec), c.AllocsPerOp)
		} else {
			fmt.Fprintf(&b, "| %s | %d | %.2f | %s | %.0f |\n",
				c.Name, c.Records, c.NsPerRecord, human(c.RecordsPerSec), c.AllocsPerOp)
		}
	}
	if len(cur.Matrix) > 0 {
		b.WriteString("\n## Fused multi-configuration matrix\n\n")
		b.WriteString("ns/record are per record per config; speedup is looped wall-clock over fused.\n\n")
		if base != nil {
			b.WriteString("| matrix | configs | records | fused ns/record | baseline | Δ fused | loop ns/record | speedup |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
		} else {
			b.WriteString("| matrix | configs | records | fused ns/record | loop ns/record | speedup |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|\n")
		}
		for _, d := range CompareMatrix(base, cur) {
			m := d.Current
			if base != nil {
				baseNs, delta := "–", "new"
				if d.Base != nil {
					baseNs = fmt.Sprintf("%.2f", d.Base.FusedNsPerRecord)
					delta = fmt.Sprintf("%+.1f%%", d.PctNs())
				}
				fmt.Fprintf(&b, "| %s | %d | %d | %.2f | %s | %s | %.2f | %.2fx |\n",
					m.Name, m.Configs, m.Records, m.FusedNsPerRecord, baseNs, delta, m.LoopNsPerRecord, m.Speedup)
			} else {
				fmt.Fprintf(&b, "| %s | %d | %d | %.2f | %.2f | %.2fx |\n",
					m.Name, m.Configs, m.Records, m.FusedNsPerRecord, m.LoopNsPerRecord, m.Speedup)
			}
		}
	}
	if len(cur.Decode) > 0 {
		b.WriteString("\n## Trace codec decode matrix\n\n")
		b.WriteString("Source-backed streaming decode (buffered reader, pooled ReadBatch); ")
		b.WriteString("ratio is sctz over flat, gated at or below 1.00x corpus-weighted.\n\n")
		if base != nil {
			b.WriteString("| trace | records | compression | flat ns/record | sctz ns/record | baseline | Δ sctz | ratio |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
		} else {
			b.WriteString("| trace | records | compression | flat ns/record | sctz ns/record | ratio |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|\n")
		}
		for _, d := range CompareDecode(base, cur) {
			c := d.Current
			if base != nil {
				baseNs, delta := "–", "new"
				if d.Base != nil {
					baseNs = fmt.Sprintf("%.2f", d.Base.SCTZNsPerRecord)
					delta = fmt.Sprintf("%+.1f%%", d.PctNs())
				}
				fmt.Fprintf(&b, "| %s | %d | %.2fx | %.2f | %.2f | %s | %s | %.2fx |\n",
					c.Name, c.Records, c.Compression, c.FlatNsPerRecord, c.SCTZNsPerRecord, baseNs, delta, c.Ratio)
			} else {
				fmt.Fprintf(&b, "| %s | %d | %.2fx | %.2f | %.2f | %.2fx |\n",
					c.Name, c.Records, c.Compression, c.FlatNsPerRecord, c.SCTZNsPerRecord, c.Ratio)
			}
		}
		flatNs, sctzNs, ratio := DecodeWeighted(cur.Decode)
		fmt.Fprintf(&b, "\nCorpus-weighted: flat %.2f ns/record, sctz %.2f ns/record (%.2fx).\n",
			flatNs, sctzNs, ratio)
	}
	return b.String()
}

// human formats a rate with an SI suffix (41.2M, 980k).
func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
