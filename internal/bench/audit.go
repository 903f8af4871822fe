package bench

import (
	"fmt"

	"softcache/internal/metrics"
	"softcache/internal/vet"
	"softcache/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "tag-audit",
		Title: "Tag-precision audit: static tags vs reuse observed in the trace",
		Run:   runTagAudit,
	})
}

// audit scores the named benchmark's static tags against the reuse in the
// trace the context holds for it — the trace the tagaudit pass of
// vet.Run would generate, record for record.
func (c *Context) audit(name string) (*vet.AuditReport, error) {
	p, err := workloads.BuildProgram(name, c.Scale)
	if err != nil {
		return nil, err
	}
	t, err := c.Trace(name)
	if err != nil {
		return nil, err
	}
	a, err := vet.Audit(p, t, vet.Options{Seed: c.Seed})
	if err != nil {
		return nil, fmt.Errorf("tag-audit: %s: %w", name, err)
	}
	return a, nil
}

// runTagAudit quantifies the paper's central premise — that the §2.3
// elementary analysis derives *trustworthy* tags. For each benchmark the
// trace the context holds is replayed through the reuse-distance oracle
// (stackdist.ObserveReuse) and the static temporal/spatial tags are
// scored against the reuse each dynamic reference actually exhibits,
// weighted by dynamic count. High precision is what the hardware needs:
// a tag is a promise the replacement policy acts on, so a wrong one
// mis-prioritises a line. Recall is naturally lower — the conservative
// analysis declines to promise reuse it cannot prove (CALL-poisoned
// bodies, indirect subscripts, cross-loop-nest reuse).
func runTagAudit(ctx *Context) (*Report, error) {
	r := &Report{ID: "tag-audit", Title: "Tag-Precision Audit"}
	tbl := metrics.NewTable("Static-tag precision/recall vs observed reuse", "benchmark",
		"T-precision", "T-recall", "S-precision", "S-recall")
	names := workloads.Benchmarks()
	audits := make([]*vet.AuditReport, len(names))
	err := ctx.eachWorkload(names, func(rc *Context, i int) (err error) {
		audits[i], err = rc.audit(names[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	minPrec := 1.0
	byName := map[string]*vet.AuditReport{}
	for i, a := range audits {
		byName[names[i]] = a
		tbl.AddRow(names[i], a.Temporal.Precision, a.Temporal.Recall,
			a.Spatial.Precision, a.Spatial.Recall)
		for _, p := range []float64{a.Temporal.Precision, a.Spatial.Precision} {
			if p < minPrec {
				minPrec = p
			}
		}
	}
	r.Tables = append(r.Tables, tbl)
	mv, liv := byName["MV"], byName["LIV"]
	r.check("MV tags are >=0.9 precise (temporal and spatial)",
		mv.Temporal.Precision >= 0.9 && mv.Spatial.Precision >= 0.9,
		fmt.Sprintf("T %.3f, S %.3f", mv.Temporal.Precision, mv.Spatial.Precision))
	r.check("LIV tags are >=0.9 precise (temporal and spatial)",
		liv.Temporal.Precision >= 0.9 && liv.Spatial.Precision >= 0.9,
		fmt.Sprintf("T %.3f, S %.3f", liv.Temporal.Precision, liv.Spatial.Precision))
	r.check("no benchmark's tags drop below 0.75 precision",
		minPrec >= 0.75, fmt.Sprintf("min precision %.3f", minPrec))
	return r, nil
}
