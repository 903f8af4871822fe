package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"softcache/internal/workloads"
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

// ReadJSON loads a previously written report. Only the current schema
// loads: a baseline in another layout has other row names, so it would
// gate nothing.
func ReadJSON(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	if r.Schema != SchemaID {
		return nil, fmt.Errorf("perf: %s has schema %q, want %q (regenerate it with softcache-perf)", path, r.Schema, SchemaID)
	}
	return &r, nil
}

// Delta is one row's comparison against a baseline run.
type Delta struct {
	Base    *Row // nil when the row is new
	Current Row
}

// PctNs returns the ns/record change in percent (positive = slower).
func (d Delta) PctNs() float64 {
	if d.Base == nil || d.Base.NsPerRecord == 0 {
		return 0
	}
	return (d.Current.NsPerRecord/d.Base.NsPerRecord - 1) * 100
}

// Compare matches the current report's rows against a baseline by name.
// Baseline-only rows are ignored: the rows are pinned in code, so a
// vanished row means the set changed on purpose.
func Compare(base, cur *Report) []Delta {
	byName := map[string]*Row{}
	if base != nil {
		for i := range base.Rows {
			byName[base.Rows[i].Name] = &base.Rows[i]
		}
	}
	deltas := make([]Delta, 0, len(cur.Rows))
	for _, r := range cur.Rows {
		deltas = append(deltas, Delta{Base: byName[r.Name], Current: r})
	}
	return deltas
}

// codecWeighted aggregates the paper-scale sctz rows and their flat
// siblings record-weighted: the corpus-wide ns/record of each codec and
// sctz's ratio against flat. ok is false when no such pair was measured.
// Test-scale traces are too small to amortise SCTZ's per-chunk setup, so
// they stay out.
func codecWeighted(rows []Row) (flatNs, sctzNs, ratio float64, ok bool) {
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	var records float64
	for _, r := range rows {
		if r.Layer != layerDecode || r.Set != codecSCTZ || r.Scale != workloads.ScalePaper.String() {
			continue
		}
		flat, found := byName[r.sibling(layerDecode, codecFlat)]
		if !found {
			continue
		}
		w := float64(r.Records)
		records += w
		flatNs += flat.NsPerRecord * w
		sctzNs += r.NsPerRecord * w
	}
	if records == 0 || flatNs == 0 {
		return 0, 0, 0, false
	}
	return flatNs / records, sctzNs / records, sctzNs / flatNs, true
}

// Gate returns an error listing every row whose ns/record regressed by
// more than maxRegress (a fraction: 0.15 = 15%) against the baseline.
// Rows absent from the baseline pass the relative check by definition.
//
// One check needs no baseline: corpus-weighted, paper-scale SCTZ decode
// must run at or below the flat decode measured in the same run. SCTZ's
// licence to exist is "smaller and no slower", so a codec change that
// breaks either half fails here even on a fresh machine.
func Gate(base, cur *Report, maxRegress float64) error {
	var bad []string
	for _, d := range Compare(base, cur) {
		if d.Base != nil && d.Current.NsPerRecord > d.Base.NsPerRecord*(1+maxRegress) {
			bad = append(bad, fmt.Sprintf("  %s: %.2f -> %.2f ns/record (%+.1f%%, budget %+.0f%%)",
				d.Current.Name, d.Base.NsPerRecord, d.Current.NsPerRecord, d.PctNs(), maxRegress*100))
		}
	}
	if flatNs, sctzNs, ratio, ok := codecWeighted(cur.Rows); ok && ratio > 1.0 {
		bad = append(bad, fmt.Sprintf(
			"  decode (corpus-weighted): sctz %.2f ns/record vs flat %.2f (%.2fx, budget 1.00x)",
			sctzNs, flatNs, ratio))
	}
	if len(bad) > 0 {
		return fmt.Errorf("perf: %d row(s) over budget (%.0f%% ns/record vs baseline; sctz <= flat):\n%s",
			len(bad), maxRegress*100, strings.Join(bad, "\n"))
	}
	return nil
}

// Markdown renders the run as a markdown report; with a baseline it adds
// the baseline's host and the delta columns (the "delta report" of
// docs/PERF.md). Below the table come the figures derived from pairs of
// rows: each fused set's speedup over its kernel loop and each trace's
// sctz÷flat decode ratio and compression.
func Markdown(base, cur *Report) string {
	var b strings.Builder
	b.WriteString("# Kernel benchmark rows\n\n")
	host := func(label string, r *Report) {
		fmt.Fprintf(&b, "%s: %s, %s/%s, %d CPUs", label, r.GoVersion, r.GOOS, r.GOARCH, r.CPUs)
		if r.Quick {
			b.WriteString(", quick rows")
		}
		b.WriteString("\n")
	}
	host("Run", cur)
	if base != nil {
		b.WriteString("\n")
		host("Baseline", base)
	}
	b.WriteString("\nns/record and records/s are per record per config.\n\n")
	if base != nil {
		b.WriteString("| row | configs | records | ns/record | baseline | Δ ns/record | records/s | allocs/op |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
	} else {
		b.WriteString("| row | configs | records | ns/record | records/s | allocs/op |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|\n")
	}
	for _, d := range Compare(base, cur) {
		r := d.Current
		fmt.Fprintf(&b, "| %s | %d | %d | %.2f |", r.Name, r.Configs, r.Records, r.NsPerRecord)
		if base != nil {
			if d.Base != nil {
				fmt.Fprintf(&b, " %.2f | %+.1f%% |", d.Base.NsPerRecord, d.PctNs())
			} else {
				b.WriteString(" – | new |")
			}
		}
		fmt.Fprintf(&b, " %s | %.0f |\n", human(1e9/r.NsPerRecord), r.AllocsPerOp)
	}

	byName := map[string]Row{}
	for _, r := range cur.Rows {
		byName[r.Name] = r
	}
	var derived []string
	for _, r := range cur.Rows {
		switch {
		case r.Layer == layerFused:
			if k, ok := byName[r.sibling(layerKernel, r.Set)]; ok {
				derived = append(derived, fmt.Sprintf("- %s: fused speedup %.2fx (kernel ÷ fused)",
					r.Name, k.NsPerRecord/r.NsPerRecord))
			}
		case r.Layer == layerDecode && r.Set == codecSCTZ:
			if f, ok := byName[r.sibling(layerDecode, codecFlat)]; ok {
				derived = append(derived, fmt.Sprintf("- %s: %.2fx flat ns/record, compression %.2fx",
					r.Name, r.NsPerRecord/f.NsPerRecord, float64(f.Bytes)/float64(r.Bytes)))
			}
		}
	}
	if flatNs, sctzNs, ratio, ok := codecWeighted(cur.Rows); ok {
		derived = append(derived, fmt.Sprintf(
			"- decode, corpus-weighted at paper scale: flat %.2f ns/record, sctz %.2f (%.2fx, budget 1.00x)",
			flatNs, sctzNs, ratio))
	}
	if len(derived) > 0 {
		b.WriteString("\n## Derived\n\n")
		b.WriteString(strings.Join(derived, "\n"))
		b.WriteString("\n")
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
