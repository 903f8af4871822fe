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
// loads: a file in another layout names its rows differently.
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

// CodecBudget holds a run to itself: record-weighted across the
// paper-scale traces, SCTZ decode must run at or below the flat decode
// measured in the same run. SCTZ's licence to exist is "smaller and no
// slower", so a codec change that breaks either half fails here on any
// host. checked is false when the run measured no paper-scale flat/sctz
// pair (a quick run); err is non-nil when the budget is exceeded.
func CodecBudget(cur *Report) (checked bool, err error) {
	flatNs, sctzNs, ratio, ok := codecWeighted(cur.Rows)
	if !ok {
		return false, nil
	}
	if ratio > 1.0 {
		return true, fmt.Errorf("perf: decode (corpus-weighted): sctz %.2f ns/record vs flat %.2f (%.2fx, budget 1.00x)",
			sctzNs, flatNs, ratio)
	}
	return true, nil
}

// Markdown renders the run as a markdown report: the host line and one
// table row per measured row. Below the table come the figures derived
// from pairs of rows: each fused set's speedup over its kernel loop and
// each trace's sctz÷flat decode ratio and compression.
func Markdown(cur *Report) string {
	var b strings.Builder
	b.WriteString("# Kernel benchmark rows\n\n")
	fmt.Fprintf(&b, "Run: %s, %s/%s, %d CPUs", cur.GoVersion, cur.GOOS, cur.GOARCH, cur.CPUs)
	if cur.Quick {
		b.WriteString(", quick rows")
	}
	b.WriteString("\n\nns/record and records/s are per record per config.\n\n")
	b.WriteString("| row | configs | records | ns/record | records/s | allocs/op |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|\n")
	for _, r := range cur.Rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %.2f | %s | %.0f |\n",
			r.Name, r.Configs, r.Records, r.NsPerRecord, human(1e9/r.NsPerRecord), r.AllocsPerOp)
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
