package bench

import (
	"fmt"
	"io"
	"time"

	"softcache/internal/metrics"
)

// WriteMarkdown renders a set of reports as a Markdown document — the
// format of EXPERIMENTS.md. The document records, for every figure, the
// regenerated table plus the shape checks that encode the paper's
// qualitative claims.
func WriteMarkdown(w io.Writer, reports []*Report, scale string, elapsed time.Duration) {
	fmt.Fprintf(w, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(w, "Regenerated by `softcache-bench -all -scale %s -md EXPERIMENTS.md` (total %v).\n\n", scale, elapsed.Round(time.Second))
	fmt.Fprintf(w, "Every figure of the paper's evaluation is regenerated below. Absolute\n")
	fmt.Fprintf(w, "numbers differ from the paper's (synthetic workloads stand in for the\n")
	fmt.Fprintf(w, "non-redistributable Fortran benchmarks — see DESIGN.md §2), so each\n")
	fmt.Fprintf(w, "figure carries *shape checks*: the qualitative claims the paper makes\n")
	fmt.Fprintf(w, "about that figure, asserted against the measured data.\n\n")
	fmt.Fprintf(w, "Figures run on the experiment harness (docs/HARNESS.md): GOMAXPROCS\n")
	fmt.Fprintf(w, "workers run them with byte-identical output.\n\n")

	passed, total := 0, 0
	for _, r := range reports {
		for _, c := range r.Checks {
			total++
			if c.Pass {
				passed++
			}
		}
	}
	fmt.Fprintf(w, "**Summary: %d/%d shape checks pass.**\n\n", passed, total)

	for _, r := range reports {
		fmt.Fprintf(w, "## Figure %s — %s\n\n", r.ID, r.Title)
		for _, t := range r.Tables {
			writeMarkdownTable(w, t)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "> %s\n\n", n)
		}
		if len(r.Checks) > 0 {
			fmt.Fprintf(w, "Shape checks:\n\n")
			for _, c := range r.Checks {
				mark := "x"
				if !c.Pass {
					mark = " "
				}
				fmt.Fprintf(w, "- [%s] %s", mark, c.Name)
				if c.Detail != "" {
					fmt.Fprintf(w, " — %s", c.Detail)
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintln(w)
		}
	}
}

func writeMarkdownTable(w io.Writer, t *metrics.Table) {
	if t.Title != "" {
		fmt.Fprintf(w, "**%s**\n\n", t.Title)
	}
	fmt.Fprintf(w, "| %s |", t.RowLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %s |", c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|")
	for range t.Columns {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	for i := 0; i < t.Rows(); i++ {
		fmt.Fprintf(w, "| %s |", t.RowLabelAt(i))
		for c := range t.Columns {
			fmt.Fprintf(w, " %.3f |", t.Value(i, c))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
