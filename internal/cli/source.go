package cli

import (
	"fmt"
	"io"
	"os"

	"softcache/internal/lang"
	"softcache/internal/loopir"
	"softcache/internal/trace"
	"softcache/internal/tracegen"
	"softcache/internal/workloads"
)

// Source is a trace a command reads as a stream: a saved file or a running
// generator. Close releases the file or stops the generator.
type Source interface {
	trace.BatchReader
	io.Closer
}

// OpenSource opens the one trace a command names as a stream: a saved
// trace file in any format (trace.OpenFile), or the trace of a built-in
// workload at a scale or of a loop-nest source file, generated with seed
// as it is read. Nothing is materialised. Naming no source, or more than
// one, is a usage error.
func OpenSource(workload, source, file, scale string, seed uint64) (Source, error) {
	if file != "" {
		if workload != "" || source != "" {
			return nil, UsageErrorf("-workload, -source and a trace file are mutually exclusive")
		}
		f, err := trace.OpenFile(file)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	p, err := Program(workload, source, scale)
	if err != nil {
		return nil, err
	}
	r, err := tracegen.NewReader(p, tracegen.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Program builds the program a command names: a built-in workload at a
// scale, or a loop-nest source file.
func Program(workload, source, scale string) (*loopir.Program, error) {
	switch {
	case workload != "" && source != "":
		return nil, UsageErrorf("-workload and -source are mutually exclusive")
	case source != "":
		data, err := os.ReadFile(source)
		if err != nil {
			return nil, err
		}
		p, err := lang.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", source, err)
		}
		return p, nil
	case workload != "":
		sc, err := workloads.ParseScale(scale)
		if err != nil {
			return nil, Usage(err)
		}
		return workloads.BuildProgram(workload, sc)
	default:
		return nil, UsageErrorf("need -workload, -source or a trace file")
	}
}
