// softcache-trace generates, saves, inspects, converts and characterises
// reference traces.
//
// Usage:
//
//	softcache-trace -workload MV -out mv.trace        # generate and save
//	softcache-trace -workload MV -out mv.sctz         # compressed by extension
//	softcache-trace -in mv.trace -stats               # fig. 1/4 style stats
//	softcache-trace -workload SpMV -stats             # directly from a workload
//	softcache-trace -in mv.trace -dump -n 20          # first records
//	softcache-trace -workload MV -program             # print the loop nest
//	softcache-trace -in big.din.gz -out big.sctz      # convert between formats
//	softcache-trace -in big.sctz -info                # stream metadata + counts
//	softcache-trace -in big.sctz -verify              # full structural check
//	softcache-trace -synth 70000000 -out ci.sctz      # adversarial synthetic
//
// -in sniffs the input format (flat SCTR, compressed SCTZ, din text,
// gzipped din); a din file is named after the file, with its .gz and
// format extensions stripped. The output format follows -format, or the
// -out extension when -format is auto. Every source streams to -out in
// O(batch) memory, so converting a multi-gigabyte capture never
// materialises it. The trace is held whole only when something needs all
// of it: -stats, a flat -out (whose header carries the record count) from
// a source that does not announce its length, or an -out that is the -in
// file. -info, -verify and -synth stream too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"softcache/internal/cli"
	"softcache/internal/locality"
	"softcache/internal/loopir"
	"softcache/internal/metrics"
	"softcache/internal/trace"
)

const tool = "softcache-trace"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; split from main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to generate (see softcache-sim -workloads)")
	source := fs.String("source", "", "loop-nest source file to compile and trace (see internal/lang)")
	in := fs.String("in", "", "trace file to read (format sniffed: flat, sctz, din, din.gz)")
	out := fs.String("out", "", "write the trace to this file")
	format := fs.String("format", "auto", "output format: auto, flat, sctz or din (auto picks by -out extension)")
	scaleName := fs.String("scale", "paper", "workload scale: paper or test")
	seed := fs.Uint64("seed", 1, "generation seed")
	stats := fs.Bool("stats", false, "print fig. 1a/1b/4a/4b style characterisation")
	dump := fs.Bool("dump", false, "dump records")
	n := fs.Int("n", 10, "records to dump")
	program := fs.Bool("program", false, "print the workload's loop nest with resolved tags")
	verify := fs.Bool("verify", false, "stream-decode -in fully, checking structure and checksums")
	info := fs.Bool("info", false, "print stream metadata and record counts for -in")
	synth := fs.Uint64("synth", 0, "generate this many synthetic records to -out (compression-adversarial, sctz)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}

	modes := 0
	for _, m := range []bool{*verify, *info, *synth > 0} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		return cli.Exit(stderr, tool, cli.UsageErrorf("-verify, -info and -synth are mutually exclusive"))
	}
	var err error
	switch {
	case *synth > 0:
		err = runSynth(stdout, *out, *synth, *seed)
	case *verify:
		err = runVerify(stdout, *in)
	case *info:
		err = runInfo(stdout, *in)
	case *program && *in == "":
		err = printProgram(stdout, *workload, *source, *scaleName)
	default:
		keep := 0
		if *dump {
			keep = max(*n, 0)
		}
		err = runTrace(stdout, *workload, *source, *in, *out, *format, *scaleName, *seed, keep, *stats)
	}
	return cli.Exit(stderr, tool, err)
}

// runTrace streams the named trace to -out (or just through, to count it)
// and prints its header line, the write confirmation, the first keep
// records and, with stats, the characterisation.
func runTrace(stdout io.Writer, workload, source, in, out, format, scale string, seed uint64, keep int, stats bool) error {
	outFormat := ""
	if out != "" {
		var err error
		if outFormat, err = pickFormat(format, out); err != nil {
			return err
		}
	}
	src, err := cli.OpenSource(workload, source, in, scale, seed)
	if err != nil {
		return err
	}
	var t *trace.Trace
	var r trace.BatchReader = src
	if stats || outFormat == "flat" && src.Len() < 0 || sameFile(in, out) {
		t, err = trace.ReadAll(src)
		src.Close()
		if err != nil {
			return err
		}
		r = t.Reader()
	} else {
		defer src.Close()
	}

	seen := &tally{BatchReader: r, keep: keep}
	if out != "" {
		err = writeTrace(out, outFormat, seen)
	} else {
		_, err = drain(seen)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace %s: %d references\n", r.Name(), seen.count)
	if out != "" {
		fmt.Fprintf(stdout, "wrote %s (%s)\n", out, outFormat)
	}
	for _, rec := range seen.head {
		fmt.Fprintln(stdout, rec)
	}
	if stats {
		printStats(stdout, t)
	}
	return nil
}

// tally counts the records streaming past and keeps the first keep of them.
type tally struct {
	trace.BatchReader
	keep  int
	count int
	head  []trace.Record
}

func (t *tally) ReadBatch(dst []trace.Record) (int, error) {
	n, err := t.BatchReader.ReadBatch(dst)
	if k := min(n, t.keep-len(t.head)); k > 0 {
		t.head = append(t.head, dst[:k]...)
	}
	t.count += n
	return n, err
}

// sameFile reports whether in and out name one existing file, which must
// be read whole before out is truncated.
func sameFile(in, out string) bool {
	if in == "" || out == "" {
		return false
	}
	a, err := os.Stat(in)
	if err != nil {
		return false
	}
	b, err := os.Stat(out)
	return err == nil && os.SameFile(a, b)
}

// printProgram prints the workload's or source file's loop nest with the
// tags the locality analysis resolves.
func printProgram(stdout io.Writer, workload, source, scale string) error {
	p, err := cli.Program(workload, source, scale)
	if err != nil {
		return err
	}
	tags, err := locality.Analyze(p)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, p.StringTagged(map[int]loopir.Tags(tags)))
	return nil
}

// pickFormat resolves the -format flag, using the output extension when
// auto: .sctz selects the compressed format, .din the Dinero text, and
// anything else the flat binary.
func pickFormat(format, outPath string) (string, error) {
	switch format {
	case "flat", "sctz", "din":
		return format, nil
	case "auto", "":
		switch filepath.Ext(outPath) {
		case ".sctz":
			return "sctz", nil
		case ".din":
			return "din", nil
		default:
			return "flat", nil
		}
	default:
		return "", cli.UsageErrorf("unknown format %q (want auto, flat, sctz or din)", format)
	}
}

// writeTrace streams r into path in the given format. A failed write
// removes the partial file, unless path named something other than a
// regular file beforehand (a device such as /dev/null, a FIFO, a symlink).
func writeTrace(path, format string, r trace.BatchReader) error {
	fi, lerr := os.Lstat(path)
	special := lerr == nil && !fi.Mode().IsRegular()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "sctz":
		_, err = trace.CopySCTZ(f, r)
	case "din":
		_, err = trace.CopyDin(f, r)
	default:
		_, err = trace.CopyFlat(f, r)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil && !special {
		os.Remove(path)
	}
	return err
}

// openInput opens -in for -verify and -info.
func openInput(in string) (*trace.File, error) {
	if in == "" {
		return nil, cli.UsageErrorf("need -in")
	}
	return trace.OpenFile(in)
}

func runSynth(stdout io.Writer, out string, n, seed uint64) error {
	if out == "" {
		return cli.UsageErrorf("-synth needs -out")
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	written, err := trace.SynthesizeSCTZ(f, "synth", n, seed)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "synthesized %s: %d records, %d bytes (%.2f B/record)\n",
		out, written, st.Size(), float64(st.Size())/float64(max(written, 1)))
	return nil
}

// drain streams r to completion, returning the record count.
func drain(r trace.BatchReader) (uint64, error) {
	batch := trace.GetBatch()
	defer trace.PutBatch(batch)
	var total uint64
	for {
		n, err := r.ReadBatch(*batch)
		total += uint64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

func runVerify(stdout io.Writer, in string) error {
	f, err := openInput(in)
	if err != nil {
		return err
	}
	defer f.Close()
	total, err := drain(f)
	if err != nil {
		return fmt.Errorf("verify failed after %d records: %w", total, err)
	}
	if sr, ok := f.BatchReader.(*trace.StreamReader); ok {
		fmt.Fprintf(stdout, "verify OK: %d records in %d chunks\n", total, sr.Chunks())
	} else {
		fmt.Fprintf(stdout, "verify OK: %d records\n", total)
	}
	return nil
}

func runInfo(stdout io.Writer, in string) error {
	f, err := openInput(in)
	if err != nil {
		return err
	}
	defer f.Close()

	formatName := "din"
	switch f.BatchReader.(type) {
	case *trace.Reader:
		formatName = "flat"
	case *trace.StreamReader:
		formatName = "sctz"
	}

	fmt.Fprintf(stdout, "format: %s\n", formatName)
	fmt.Fprintf(stdout, "name: %s\n", f.Name())
	if n := f.Len(); n >= 0 {
		fmt.Fprintf(stdout, "announced records: %d\n", n)
	} else {
		fmt.Fprintf(stdout, "announced records: unknown\n")
	}
	total, err := drain(f)
	if err != nil {
		return fmt.Errorf("decode failed after %d records: %w", total, err)
	}
	fmt.Fprintf(stdout, "records: %d\n", total)
	var size int64
	if st, serr := os.Stat(in); serr == nil {
		size = st.Size()
		fmt.Fprintf(stdout, "bytes: %d (%.2f B/record)\n", size, float64(size)/float64(max(total, 1)))
	}
	if sr, ok := f.BatchReader.(*trace.StreamReader); ok {
		fmt.Fprintf(stdout, "chunks: %d\n", sr.Chunks())
		if size > 0 {
			flatSize := int64(total)*15 + 16 + int64(len(f.Name()))
			fmt.Fprintf(stdout, "flat equivalent: %d bytes (%.2fx compression)\n", flatSize, float64(flatSize)/float64(size))
		}
	}
	fmt.Fprintf(stdout, "mapped: %v\n", f.Mapped())
	return nil
}

func printStats(w io.Writer, t *trace.Trace) {
	fmt.Fprintln(w)
	reuse := metrics.ReuseDistances(t, 8)
	tbl := metrics.NewTable("Reuse distances (fig. 1a)", "trace", metrics.ReuseBuckets...)
	tbl.AddRow(t.Name, reuse[0], reuse[1], reuse[2], reuse[3], reuse[4])
	tbl.Fprint(w, "%.3f")
	fmt.Fprintln(w)

	vec := metrics.VectorLengths(t, metrics.VectorParams{})
	tbl = metrics.NewTable("Vector lengths (fig. 1b)", "trace", metrics.VectorBuckets...)
	tbl.AddRow(t.Name, vec[0], vec[1], vec[2], vec[3], vec[4], vec[5])
	tbl.Fprint(w, "%.3f")
	fmt.Fprintln(w)

	tags := metrics.TagFractions(t)
	tbl = metrics.NewTable("Tag fractions (fig. 4a)", "trace", metrics.TagClasses...)
	tbl.AddRow(t.Name, tags[0], tags[1], tags[2], tags[3])
	tbl.Fprint(w, "%.3f")
	fmt.Fprintln(w)

	gaps := metrics.GapDistribution(t)
	tbl = metrics.NewTable("Issue gaps (fig. 4b)", "trace", metrics.GapBuckets...)
	tbl.AddRow(t.Name, gaps[0], gaps[1], gaps[2], gaps[3], gaps[4], gaps[5], gaps[6], gaps[7], gaps[8])
	tbl.Fprint(w, "%.3f")
}
