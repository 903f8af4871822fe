package vet

import (
	"fmt"

	"softcache/internal/loopir"
	"softcache/internal/stackdist"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
)

func init() {
	registerPass(Pass{
		Name:    "tagaudit",
		Doc:     "replay the trace through a reuse-distance oracle and score the static tags",
		Dynamic: true,
		Run:     runTagAudit,
	})
}

// RefAudit scores one static reference site against observed reuse.
type RefAudit struct {
	RefID int    `json:"ref"`
	Site  string `json:"site"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
	// TaggedTemporal / TaggedSpatial are the static tags under audit
	// (after directives, poisoning and group demotion).
	TaggedTemporal bool `json:"tagged_temporal"`
	TaggedSpatial  bool `json:"tagged_spatial"`
	// Dynamic counts the reference's records in the trace.
	Dynamic uint64 `json:"dynamic"`
	// TemporalObserved / SpatialObserved count the dynamic references for
	// which the oracle saw the corresponding reuse within the window.
	TemporalObserved uint64 `json:"temporal_observed"`
	SpatialObserved  uint64 `json:"spatial_observed"`
}

// PrecisionRecall scores one tag kind over a whole program, weighted by
// dynamic reference counts (a site executed a million times matters more
// than one executed once):
//
//	precision = observed reuse among tagged references / tagged references
//	recall    = tagged among references with observed reuse / observed reuse
//
// Precision is the cost side (a wrong tag mis-prioritises a line); recall
// is the benefit side (reuse the analysis failed to promise).
type PrecisionRecall struct {
	TaggedRefs   uint64  `json:"tagged_refs"`
	ObservedRefs uint64  `json:"observed_refs"`
	TruePositive uint64  `json:"true_positive"`
	Precision    float64 `json:"precision"`
	Recall       float64 `json:"recall"`
}

func (pr *PrecisionRecall) finish() {
	if pr.TaggedRefs > 0 {
		pr.Precision = float64(pr.TruePositive) / float64(pr.TaggedRefs)
	}
	if pr.ObservedRefs > 0 {
		pr.Recall = float64(pr.TruePositive) / float64(pr.ObservedRefs)
	}
}

// AuditReport is the tag-precision audit of one program: the static
// temporal/spatial tags replayed against the reuse the trace actually
// exhibits (see stackdist.ObserveReuse for the oracle's definition of
// observed reuse).
type AuditReport struct {
	Program     string     `json:"program"`
	Records     uint64     `json:"records"`
	Seed        uint64     `json:"seed"`
	LineBytes   int        `json:"line_bytes"`
	WindowLines int        `json:"window_lines"`
	Refs        []RefAudit `json:"refs"`
	// Temporal and Spatial are the dynamic-reference-weighted scores over
	// all sites.
	Temporal PrecisionRecall `json:"temporal"`
	Spatial  PrecisionRecall `json:"spatial"`
}

// Audit scores p's static tags against the reuse observed in tr, which
// must be p's trace under the tags the analysis derives (tracegen.Generate
// of p, or workloads.Trace of its workload). opts.Seed only labels the
// report with the seed tr was generated with; Audit generates nothing.
// The tagaudit pass generates its own trace and shares the scoring.
func Audit(p *loopir.Program, tr *trace.Trace, opts Options) (*AuditReport, error) {
	ctx, err := newContext(p, opts)
	if err != nil {
		return nil, err
	}
	return audit(ctx, tr), nil
}

// audit scores the context's tagging against the reuse oracle's replay of
// tr.
func audit(ctx *Context, tr *trace.Trace) *AuditReport {
	opts := ctx.Opts
	lineBytes := opts.LineBytes
	if lineBytes <= 0 {
		lineBytes = 32
	}
	window := opts.WindowLines
	if window <= 0 {
		window = 1 << 16
	}
	reuse := stackdist.ObserveReuse(tr, lineBytes, window)

	type counts struct{ dyn, temporal, spatial uint64 }
	byRef := map[int]*counts{}
	for i, rec := range tr.Records {
		if rec.SoftwarePrefetch {
			continue
		}
		c := byRef[int(rec.RefID)]
		if c == nil {
			c = &counts{}
			byRef[int(rec.RefID)] = c
		}
		c.dyn++
		if reuse[i].Temporal {
			c.temporal++
		}
		if reuse[i].Spatial {
			c.spatial++
		}
	}

	rep := &AuditReport{
		Program:     ctx.Prog.Name,
		Records:     uint64(tr.Len()),
		Seed:        auditSeed(opts),
		LineBytes:   lineBytes,
		WindowLines: window,
	}
	for _, r := range ctx.Graph.Refs {
		t := ctx.Tags[r.Access.ID]
		ra := RefAudit{
			RefID:          r.Access.ID,
			Site:           r.String(),
			Line:           r.Access.Pos.Line,
			Col:            r.Access.Pos.Col,
			TaggedTemporal: t.Temporal,
			TaggedSpatial:  t.Spatial,
		}
		if c := byRef[r.Access.ID]; c != nil {
			ra.Dynamic = c.dyn
			ra.TemporalObserved = c.temporal
			ra.SpatialObserved = c.spatial
		}
		rep.Refs = append(rep.Refs, ra)

		// Weighted aggregation: every dynamic reference of the site votes
		// with its own observation; the tag is per site.
		if ra.Dynamic > 0 {
			if t.Temporal {
				rep.Temporal.TaggedRefs += ra.Dynamic
				rep.Temporal.TruePositive += ra.TemporalObserved
			}
			rep.Temporal.ObservedRefs += ra.TemporalObserved
			if t.Spatial {
				rep.Spatial.TaggedRefs += ra.Dynamic
				rep.Spatial.TruePositive += ra.SpatialObserved
			}
			rep.Spatial.ObservedRefs += ra.SpatialObserved
		}
	}
	rep.Temporal.finish()
	rep.Spatial.finish()
	return rep
}

// auditSeed is the trace-generation seed of an audit (0 means 1).
func auditSeed(opts Options) uint64 {
	if opts.Seed == 0 {
		return 1
	}
	return opts.Seed
}

// runTagAudit is the pass wrapper: it stores the structured report on the
// context (Run lifts it into the Result) and emits findings for sites
// whose tags disagree badly with the observed reuse.
func runTagAudit(ctx *Context) ([]Finding, error) {
	tr, err := tracegen.GenerateTagged(ctx.Prog, ctx.Tags, tracegen.Options{Seed: auditSeed(ctx.Opts)})
	if err != nil {
		return nil, fmt.Errorf("trace generation: %w", err)
	}
	rep := audit(ctx, tr)
	ctx.audit = rep
	var findings []Finding
	for _, ra := range rep.Refs {
		if ra.Dynamic == 0 {
			continue
		}
		r := ctx.Graph.RefByID(ra.RefID)
		if ra.TaggedTemporal && low(ra.TemporalObserved, ra.Dynamic) {
			findings = append(findings, findingAt("tagaudit", Info, r,
				"temporal tag confirmed by only %d of %d dynamic references (%.0f%%): the promised reuse rarely happens within the window",
				ra.TemporalObserved, ra.Dynamic, pct(ra.TemporalObserved, ra.Dynamic)))
		}
		if ra.TaggedSpatial && low(ra.SpatialObserved, ra.Dynamic) {
			findings = append(findings, findingAt("tagaudit", Info, r,
				"spatial tag confirmed by only %d of %d dynamic references (%.0f%%): neighbouring words are rarely touched within the window",
				ra.SpatialObserved, ra.Dynamic, pct(ra.SpatialObserved, ra.Dynamic)))
		}
	}
	return findings, nil
}

// low reports whether fewer than half of the dynamic references confirm
// the tag — the threshold for calling a site out individually.
func low(observed, dynamic uint64) bool { return observed*2 < dynamic }

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
