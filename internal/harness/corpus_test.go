package harness

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"softcache/internal/core"
	"softcache/internal/trace"
)

// FaultCase is one corrupted input of the fault-injection corpus.
type FaultCase struct {
	// Name identifies the corruption applied.
	Name string
	// Data is the corrupted serialised trace.
	Data []byte
	// WantParseError is true when the corruption breaks the framing, so
	// the trace reader must reject the stream. When false the stream stays
	// structurally valid (e.g. flipped tag bits) and must instead survive
	// the full trace→simulate pipeline without a panic.
	WantParseError bool
}

// Corpus derives the fault-injection corpus from a healthy trace: header
// and record truncations, flipped magic/version bytes, absurd record
// counts, and tag/flag flips that keep the framing valid but corrupt the
// software hints. The corpus is deterministic, so failures reproduce.
func Corpus(t *trace.Trace) ([]FaultCase, error) {
	var buf bytes.Buffer
	if err := trace.Write(&buf, t); err != nil {
		return nil, fmt.Errorf("harness: serialising corpus seed: %w", err)
	}
	healthy := buf.Bytes()
	headerLen := 4 + 2 + 2 + len(t.Name) + 8 // magic, version, name len, name, count
	countOff := headerLen - 8

	clone := func() []byte { return append([]byte(nil), healthy...) }
	var cases []FaultCase

	// Truncations: inside the magic, the version, the name, the count, and
	// at several points inside the record stream.
	cuts := []struct {
		name string
		at   int
	}{
		{"truncated-empty", 0},
		{"truncated-mid-magic", 2},
		{"truncated-mid-version", 5},
		{"truncated-mid-name", 4 + 2 + 2 + len(t.Name)/2},
		{"truncated-mid-count", countOff + 3},
		{"truncated-first-record", headerLen + 7},
		{"truncated-mid-stream", headerLen + (len(healthy)-headerLen)/2},
		{"truncated-last-byte", len(healthy) - 1},
	}
	for _, c := range cuts {
		if c.at < 0 || c.at >= len(healthy) {
			continue
		}
		cases = append(cases, FaultCase{Name: c.name, Data: clone()[:c.at], WantParseError: true})
	}

	// Bad framing bytes.
	badMagic := clone()
	badMagic[0] = 'X'
	cases = append(cases, FaultCase{Name: "corrupt-magic", Data: badMagic, WantParseError: true})

	badVersion := clone()
	binary.LittleEndian.PutUint16(badVersion[4:6], 0x7fff)
	cases = append(cases, FaultCase{Name: "corrupt-version", Data: badVersion, WantParseError: true})

	// Absurd record counts: far beyond the budget, and plausible-but-wrong
	// (one more record than the stream holds).
	huge := clone()
	binary.LittleEndian.PutUint64(huge[countOff:countOff+8], ^uint64(0))
	cases = append(cases, FaultCase{Name: "absurd-count", Data: huge, WantParseError: true})

	offByOne := clone()
	binary.LittleEndian.PutUint64(offByOne[countOff:countOff+8], uint64(len(t.Records))+1)
	cases = append(cases, FaultCase{Name: "count-overruns-stream", Data: offByOne, WantParseError: true})

	// Tag flips: XOR the flags byte of a spread of records. The stream
	// still parses — the corruption is semantic (wrong hints), which the
	// simulator must absorb without panicking (with runtime invariant
	// checks on, any resulting state corruption surfaces as a structured
	// failure, not a crash).
	if n := len(t.Records); n > 0 {
		const recordSize = 15
		flagsOff := func(i int) int { return headerLen + i*recordSize + 14 }
		for _, f := range []struct {
			name string
			mask byte
		}{
			{"tag-flip-temporal", 1 << 1},
			{"tag-flip-spatial", 1 << 2},
			{"tag-flip-all-flags", 0xff},
		} {
			flipped := clone()
			for i := 0; i < n; i += 1 + n/17 {
				flipped[flagsOff(i)] ^= f.mask
			}
			cases = append(cases, FaultCase{Name: f.name, Data: flipped})
		}
		// Garbage in the address/size fields of a few records: still a
		// structurally valid stream, so it must simulate without panics.
		garbage := clone()
		for i := 0; i < n; i += 1 + n/5 {
			off := headerLen + i*recordSize
			for j := 0; j < recordSize-1; j++ {
				garbage[off+j] ^= 0xa5
			}
		}
		cases = append(cases, FaultCase{Name: "record-byte-garbage", Data: garbage})
	}
	return cases, nil
}

// FaultOutcome is the result of pushing one corpus case through the
// trace→simulate pipeline.
type FaultOutcome struct {
	Name string
	// ParseErr is the trace reader's rejection, if any.
	ParseErr string
	// SimErr is the simulation failure, if any (a structurally valid but
	// semantically corrupt stream may still simulate cleanly).
	SimErr string
	// References is the number of records simulated on success.
	References uint64
}

// Contained reports whether the pipeline behaved: a framing fault must be
// rejected by the parser, and every case must end in a value or an error —
// panics are converted to unit failures by the harness and fail the run.
func (o FaultOutcome) Contained(wantParseError bool) bool {
	if wantParseError {
		return o.ParseErr != ""
	}
	return true
}

// RunFaults pushes every corpus case through the flat decoder (the corpus
// is flat by construction) and — when the stream parses — core.Run with
// runtime invariant checks enabled, all under the harness's panic
// containment. It returns the outcomes in corpus order, with a failed-run
// result for any case that panicked or was mishandled.
func RunFaults(ctx context.Context, corpus []FaultCase, cfg core.Config, opts Options) []Result[FaultOutcome] {
	cfg = core.WithRuntimeChecks(cfg, true)
	units := make([]Unit[FaultOutcome], len(corpus))
	for i, fc := range corpus {
		fc := fc
		units[i] = Unit[FaultOutcome]{
			Key: "fault:" + fc.Name,
			Meta: map[string]string{
				"case":  fc.Name,
				"bytes": fmt.Sprint(len(fc.Data)),
			},
			Run: func(runCtx context.Context) (FaultOutcome, error) {
				out := FaultOutcome{Name: fc.Name}
				tr, err := parseFlat(fc.Data)
				if err != nil {
					out.ParseErr = err.Error()
					if !fc.WantParseError {
						return out, fmt.Errorf("harness: case %s: unexpected parse rejection: %w", fc.Name, err)
					}
					return out, nil
				}
				if fc.WantParseError {
					return out, fmt.Errorf("harness: case %s: corrupt stream accepted by parser", fc.Name)
				}
				res, err := core.Run(runCtx, core.Job{Configs: []core.Config{cfg}}, tr.Reader())
				if err != nil {
					out.SimErr = err.Error()
					return out, nil
				}
				out.References = res[0].Stats.References
				return out, nil
			},
		}
	}
	return Run(ctx, units, opts)
}

// parseFlat materialises a flat trace stream with the flat decoder.
func parseFlat(data []byte) (*trace.Trace, error) {
	r, err := trace.NewReaderBytes(data)
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(r)
}
