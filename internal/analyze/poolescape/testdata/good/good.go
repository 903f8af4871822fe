// Fixture: the blessed pool idioms — none of these may be flagged.
package good

import (
	"io"

	"softcache/internal/trace"
)

// stream is the decode-loop idiom from trace.ReadAll / core.Run:
// deferred PutBatch, records copied out by append (the append result
// grows the destination, not the batch).
func stream(r *trace.Reader) ([]trace.Record, error) {
	var out []trace.Record
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	for {
		n, err := r.ReadBatch(*batch)
		out = append(out, (*batch)[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// reslice may alias the batch freely while the loan is open.
func reslice() int {
	b := trace.GetBatch()
	recs := (*b)[:0]
	recs = append(recs, trace.Record{})
	n := len(recs)
	trace.PutBatch(b)
	return n
}

// branchPut returns the batch on every path; uses in the sibling branch
// are before the put on that path.
func branchPut(full bool) {
	b := trace.GetBatch()
	if full {
		_ = (*b)[:cap(*b)]
		trace.PutBatch(b)
	} else {
		trace.PutBatch(b)
	}
}

// passDown may hand the batch to a callee: the callee is analyzed on
// its own and the loan is still open here.
func passDown() {
	b := trace.GetBatch()
	fill(*b)
	trace.PutBatch(b)
}

func fill(dst []trace.Record) {
	for i := range dst {
		dst[i] = trace.Record{}
	}
}
